package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/testgraph"
	"repro/internal/vec"
)

// spanIters is the iteration count of the rank-sum runs in this file and in
// the equivalence matrix.
const spanIters = 6

// spanApps are the registry's rank-sum programs — the ones whose pull runs on
// vec.RankSumChunk, one call per chunk (per run span under Record) — each
// with its sequential reference.
func spanApps(g *graph.Graph, root uint32) []struct {
	name string
	mk   func() apps.Program
	ref  []float64
} {
	return []struct {
		name string
		mk   func() apps.Program
		ref  []float64
	}{
		{"pr", func() apps.Program { return apps.NewPageRank(g) }, apps.ReferencePageRank(g, 0.85, spanIters)},
		{"ppr", func() apps.Program { return apps.NewPersonalizedPageRank(g, root) }, apps.ReferencePPR(g, 0.85, root, spanIters)},
		{"wpr", func() apps.Program { return apps.NewWeightedRank(g) }, apps.ReferenceWeightedRank(g, 0.85, spanIters)},
	}
}

// TestSpanPullParity: on every corpus graph, a rank-sum program's lanes are
// the same bits whichever kernel reduces the spans (the selected one — AVX2
// where the CPU has it — or the Go twin), whether or not the run records
// counters, run fused or through the generic Message/Combine fold, and — on a
// pinned chunk grid — at every worker count. The default grid derives from
// the worker count, so there a run is compared with the runs of its own
// worker count only. Every configuration also agrees with
// the sequential reference to rounding, and a Record run charges each span
// exactly once.
func TestSpanPullParity(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		g := c.WithWeights()
		cg := BuildGraph(g)
		for _, app := range spanApps(g, c.Root) {
			t.Run(c.Name+"/"+app.name, func(t *testing.T) {
				for _, chunk := range []int{0, 16} {
					var pinned []uint64 // the lanes every worker count must reproduce at a pinned grid
					for _, workers := range []int{1, 2, 4} {
						var want []uint64
						for _, goTwin := range []bool{true, false} {
							for _, record := range []bool{false, true} {
								for _, generic := range []bool{false, true} {
									opt := Options{Workers: workers, ChunkVectors: chunk,
										Mode: EnginePullOnly, AblateSIMD: goTwin, Record: record}
									label := fmt.Sprintf("chunk%d w%d gotwin=%v record=%v generic=%v",
										chunk, workers, goTwin, record, generic)
									p := app.mk()
									if generic {
										p = unfused{p}
									}
									r := NewRunner(cg, opt)
									res := Run(r, p, spanIters)
									r.Close()
									if want == nil {
										want = res.Props
										assertNearReference(t, label, res.Props, app.ref)
									}
									if !slices.Equal(res.Props, want) {
										t.Fatalf("%s: lanes differ from the first run at this grid and worker count", label)
									}
									if record {
										assertSpanCounters(t, label, cg, res, spanIters)
									}
								}
							}
						}
						if chunk == 0 {
							continue
						}
						if pinned == nil {
							pinned = want
						}
						if !slices.Equal(want, pinned) {
							t.Fatalf("chunk%d w%d: lanes differ from one worker's on the same grid", chunk, workers)
						}
					}
				}
			})
		}
	}
	t.Logf("selected kernel: %s", vec.Kernel())
}

// laneHash is FNV-1a over the lanes, little-endian.
func laneHash(props []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range props {
		binary.LittleEndian.PutUint64(b[:], p)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSpanPullPinnedToTwoGatherKernel: six-iteration pr, ppr and wpr runs
// hash to what commit c6b4fe2 produced — the last one whose kernel multiplied
// props[n]·scale[n] out on every edge, built its 1/outdeg array from the edge
// list on every run and summed dangling mass by scanning all N vertices. The
// hashes were taken there through the same registry entries, on the default
// grid at one worker and on a 16-vector grid at two; gathering a per-vertex
// contrib, reading degrees off CSR and walking a dangling list must not move
// a bit, on either kernel. (The weighted mesh's edge list is (src,
// dst)-sorted, so wpr's CSR-order weighted degree is the parent's
// edge-list-order one.)
func TestSpanPullPinnedToTwoGatherKernel(t *testing.T) {
	var mesh testgraph.Graph
	for _, c := range testgraph.Corpus() {
		if c.Props.Has(testgraph.Mesh | testgraph.Weighted) {
			mesh = c
		}
	}
	skewed := testgraph.Skewed()
	web := gen.Generate(gen.UK2007, 0.25)
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		app      string
		root     uint32
		w1, grid string // lanes at {Workers: 1} and at {Workers: 2, ChunkVectors: 16}
	}{
		{"pr/skewed", skewed.G, "pr", 0, "05d26a5430eb0b6d", "1f65b6c2abde7807"},
		{"ppr/skewed", skewed.G, "ppr", skewed.Root, "374e445e854adbb7", "ec108fa2c356364a"},
		{"wpr/weighted-mesh", mesh.G, "wpr", 0, "1ad14f86cffb7b10", "1ad14f86cffb7b10"},
		{"pr/uk2007", web, "pr", 0, "4a542ca3ef8c6fc6", "90300b0f5e234d54"},
		{"ppr/uk2007", web, "ppr", 3, "3291a9c3620856af", "046baf16592636ef"},
	} {
		cg := BuildGraph(tc.g)
		ent, err := apps.Lookup(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		p := apps.Params{Iters: spanIters, Root: tc.root}
		for _, goTwin := range []bool{false, true} {
			for _, run := range []struct {
				opt  Options
				want string
			}{
				{Options{Workers: 1}, tc.w1},
				{Options{Workers: 2, ChunkVectors: 16}, tc.grid},
			} {
				run.opt.AblateSIMD = goTwin
				prog, err := ent.New(cg, p)
				if err != nil {
					t.Fatal(err)
				}
				r := NewRunner(cg, run.opt)
				got := laneHash(Run(r, prog, spanIters).Props)
				r.Close()
				if got != run.want {
					t.Errorf("%s w%d chunk%d gotwin=%v: lanes hash to %s, the two-gather kernel's to %s",
						tc.name, run.opt.Workers, run.opt.ChunkVectors, goTwin, got, run.want)
				}
			}
		}
	}
}

func assertNearReference(t *testing.T, label string, props []uint64, ref []float64) {
	t.Helper()
	for v, bits := range props {
		if got := math.Float64frombits(bits); math.Abs(got-ref[v]) > 1e-12*(1+math.Abs(ref[v])) {
			t.Fatalf("%s: rank[%d] = %v, sequential reference %v", label, v, got, ref[v])
		}
	}
}

// assertSpanCounters: every vector of every pull is charged once, its valid
// lanes as edges and the rest as invalid, exactly as the vector-by-vector
// walk charged them.
func assertSpanCounters(t *testing.T, label string, cg *Graph, res Result, iters int) {
	t.Helper()
	e := res.EdgeCounters
	vectors, edges := uint64(iters*cg.VSD.NumVectors()), uint64(iters*cg.VSD.ValidEdges)
	if e.VectorsProcessed != vectors || e.EdgesProcessed != edges || e.TLSWrites != edges ||
		e.InvalidLanes != 4*vectors-edges || e.LocalAccesses+e.RemoteAccesses != edges || e.FrontierSkips != 0 {
		t.Fatalf("%s: Edge counters %+v, want %d vectors and %d edges", label, e, vectors, edges)
	}
}

// roundLog is cc with a log of the lanes each iteration starts from. Two runs
// with equal logs made the same Apply decisions round by round, so their
// frontiers — and each round's density — were equal too.
type roundLog struct {
	*apps.ConnComp
	rounds []string
}

func (l *roundLog) PreIteration(props []uint64) { l.rounds = append(l.rounds, laneHash(props)) }

// TestMinPropChunkMatchesVectorWalk: cc's synchronous rounds run as one gated
// vec.MinPropChunk call per chunk and its in-place rounds as one ungated,
// windowed call, and on every corpus graph and T/U/D analog the run matches
// the full-vector ablation — the gated vector-by-vector walk — on the same
// grid, at every worker count, on the selected kernel and on the Go twin:
// the same lanes at the start of every round (so the same frontier and
// density per round: an ungated in-place round reads sources outside the
// frontier and must change nothing by it), the same final lanes and the same
// iteration count. A Record run charges exactly the Edge
// counters the walk charges. Pull-only, so every round takes the chunk walk.
func TestMinPropChunkMatchesVectorWalk(t *testing.T) {
	inPlaceRounds := 0
	for _, c := range inPlaceGraphs() {
		cg := BuildGraph(c.G)
		t.Run(c.Name, func(t *testing.T) {
			for _, chunk := range []int{0, 16} {
				for _, workers := range []int{1, 2, 4} {
					walk := func(record bool) (Result, []string) {
						r := NewRunner(cg, Options{Workers: workers, ChunkVectors: chunk, Mode: EnginePullOnly,
							AblateFullVector: true, Record: record})
						defer r.Close()
						p := &roundLog{ConnComp: apps.NewConnComp()}
						return Run(r, p, 1<<20), p.rounds
					}
					want, wantRounds := walk(false)
					wantRec, _ := walk(true)
					inPlaceRounds += max(0, want.Iterations-inPlaceAfter)
					for _, goTwin := range []bool{false, true} {
						for _, record := range []bool{false, true} {
							label := fmt.Sprintf("chunk%d w%d gotwin=%v record=%v", chunk, workers, goTwin, record)
							r := NewRunner(cg, Options{Workers: workers, ChunkVectors: chunk,
								Mode: EnginePullOnly, AblateSIMD: goTwin, Record: record})
							p := &roundLog{ConnComp: apps.NewConnComp()}
							res := Run(r, p, 1<<20)
							r.Close()
							if !slices.Equal(p.rounds, wantRounds) {
								t.Fatalf("%s: round lanes %v, the vector walk's %v", label, p.rounds, wantRounds)
							}
							if !slices.Equal(res.Props, want.Props) || res.Iterations != want.Iterations {
								t.Fatalf("%s: %d iterations, lanes equal %v; the vector walk took %d",
									label, res.Iterations, slices.Equal(res.Props, want.Props), want.Iterations)
							}
							if record && res.EdgeCounters != wantRec.EdgeCounters {
								t.Fatalf("%s: Edge counters %+v, the vector walk's %+v", label, res.EdgeCounters, wantRec.EdgeCounters)
							}
						}
					}
				}
			}
		})
	}
	if inPlaceRounds == 0 {
		t.Error("no run reached an in-place round")
	}
}

// TestMinSrcChunkMatchesVectorWalk: bfs's pull runs as one vec.MinSrcChunk
// call per chunk, and on every corpus graph and the T×1 and D×1 analogs,
// under frontiers and converged sets of density 0, 0.1, 0.5 and 1 each, on
// chunk grids whose hub runs straddle chunks, each chunk's trailing (last,
// acc) and every accum word the grid's interior runs leave are the same bits
// on the selected kernel, on the Go twin and on pullSABody's saturating walk
// (the full-vector ablation: a frontier test per vector, the first live lane
// taken, the run left). accum starts from draws that mix small ids,
// Identity and words with bit 63 set, so a store that should leave a word as
// it found it is seen to.
func TestMinSrcChunkMatchesVectorWalk(t *testing.T) {
	graphs := testgraph.Corpus()
	for _, d := range []gen.Dataset{gen.Twitter, gen.DimacsUSA} {
		graphs = append(graphs, testgraph.Graph{Name: d.Abbrev() + "1", Root: 1, G: gen.Generate(d, 1)})
	}
	densities := []float64{0, 0.1, 0.5, 1}
	straddled := 0
	for _, c := range graphs {
		cg := BuildGraph(c.G)
		a := cg.VSD
		r := NewRunner(cg, Options{Workers: 1, AblateFullVector: true})
		ec := r.NewContext()
		p := apps.NewBFS(c.Root)
		ec.Init(p)
		fz := fuseFor(p, false)
		if path := builtPath(ec, p); path != pathVector {
			t.Fatalf("%s: the full-vector ablation built the %s, not the %s", c.Name, path, pathVector)
		}
		rng := rand.New(rand.NewSource(12))
		start := make([]uint64, cg.N)
		for v := range start {
			switch rng.Intn(4) {
			case 0:
				start[v] = apps.NoParent
			case 1:
				start[v] = 1<<63 | rng.Uint64()
			default:
				start[v] = uint64(rng.Intn(2 * cg.N))
			}
		}
		for _, fd := range densities {
			for _, cd := range densities {
				fillAt(ec.front, fd, rng)
				fillAt(ec.conv, cd, rng)
				front, conv := ec.front.Words(), ec.conv.Words()
				for _, chunk := range []int{1, 2, 3, 16, 64} {
					label := fmt.Sprintf("%s front %.1f conv %.1f chunk %d", c.Name, fd, cd, chunk)
					kAccum, tAccum := slices.Clone(start), slices.Clone(start)
					copy(ec.accum, start)
					walk := pullSABody(ec, &fz)
					for lo := 0; lo < a.NumVectors(); lo += chunk {
						hi := min(lo+chunk, a.NumVectors())
						dst := int(firstTop(a, lo))
						if a.Index[dst] < lo && a.Index[dst+1] > lo {
							straddled++
						}
						kLast, kAcc := vec.MinSrcChunk(a.Words, a.Index, front, conv, kAccum, dst, lo, hi)
						tLast, tAcc := vec.MinSrcChunkGo(a.Words, a.Index, front, conv, tAccum, dst, lo, hi)
						walk(sched.Range{Lo: lo, Hi: hi}, 0, 0, 0)
						wLast, wAcc := -1, uint64(0)
						ec.mergeBuf.Merge(func(d uint32, v uint64) { wLast, wAcc = int(d), v })
						if kLast != wLast || kAcc != wAcc || tLast != wLast || tAcc != wAcc {
							t.Fatalf("%s: chunk [%d,%d) returned %s (%d, %#x), Go twin (%d, %#x), the vector walk saved (%d, %#x)",
								label, lo, hi, vec.Kernel(), kLast, kAcc, tLast, tAcc, wLast, wAcc)
						}
					}
					for v := range start {
						if kAccum[v] != ec.accum[v] || tAccum[v] != ec.accum[v] {
							t.Fatalf("%s: accum[%d]: %s %#x, Go twin %#x, the vector walk %#x",
								label, v, vec.Kernel(), kAccum[v], tAccum[v], ec.accum[v])
						}
					}
				}
			}
		}
		r.Close()
	}
	if straddled == 0 {
		t.Error("no chunk began inside a run")
	}
}

// fillAt clears d and adds each vertex with the given probability (1 adds
// all of them, 0 none).
func fillAt(d *frontier.Dense, density float64, rng *rand.Rand) {
	d.Clear()
	for v := 0; v < d.Len(); v++ {
		if density >= 1 || rng.Float64() < density {
			d.Add(uint32(v))
		}
	}
}
