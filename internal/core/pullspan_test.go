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
// vec.RankSumChunk, one call per chunk, under Record too — each with its
// sequential reference.
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

// minChunkRow is one min walk of the chunk-parity driver: the program whose
// pull it is, the body its chunk walk builds, the converged-set densities it
// runs under (cc tracks no converged set) and whether the walk skips a
// destination at 0 (cc's does, outside the paper configuration).
type minChunkRow struct {
	mk       func(root uint32) apps.Program
	path     string
	convs    []float64
	skipZero bool
}

// TestMinPropChunkMatchesVectorWalk: cc's pull, one vec.MinPropChunk call
// per chunk, meets the vector walk chunk by chunk (minChunkParity), with the
// skip applied to the walk's output: a destination at 0 keeps the accum word
// it started with, and a chunk that ends on it saves Identity. Under the paper
// configuration (AblateFrontierWork) the call walks those runs too and meets
// the vector walk exactly. Its rounds are synchronous here: an in-place
// round reads its window ungated, which agrees with the walk only on the
// lanes a run reaches, and the equivalence matrix holds those round by round
// against the full-vector walk.
func TestMinPropChunkMatchesVectorWalk(t *testing.T) {
	minChunkParity(t, minChunkRow{func(uint32) apps.Program { return apps.NewConnComp() }, pathChunk, chunkDensities[:1], true})
}

// TestMinSrcChunkMatchesVectorWalk: bfs's pull, one vec.MinSrcChunk call per
// chunk, meets the vector walk chunk by chunk (minChunkParity), the walk
// taking a run's first live lane and leaving the run.
func TestMinSrcChunkMatchesVectorWalk(t *testing.T) {
	minChunkParity(t, minChunkRow{func(root uint32) apps.Program { return apps.NewBFS(root) }, pathMinSrc, chunkDensities, false})
}

// chunkDensities are the frontier and converged-set densities of the
// chunk-parity driver.
var chunkDensities = []float64{0, 0.1, 0.5, 1}

// minChunkParity is the chunk-parity driver of the two min walks: row's chunk
// walk on the selected kernel and on its Go twin (AblateSIMD) leaves chunk by
// chunk the same trailing (last, acc) and the same accum words as
// pullSABody's vector walk (AblateFullVector: a frontier test per vector),
// with a row's skip of destinations at 0 applied to the walk's output. The
// paper configuration's walk (AblateFrontierWork: cc's chunk walk without the
// skip, bfs's vector walk without the early exit) meets it exactly. It runs on every corpus graph, the T/U/D analogs, T×1 and D×1, one
// subtest each, under frontiers of density 0, 0.1, 0.5 and 1 and the row's
// converged sets, on chunk grids whose hub runs straddle chunks. Lanes and
// accum start from draws that mix small ids, 0, Identity and words with bit
// 63 set, so a store that should leave a word as it found it is seen to.
func minChunkParity(t *testing.T, row minChunkRow) {
	graphs := testgraph.Corpus()
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007, gen.DimacsUSA} {
		graphs = append(graphs, testgraph.Graph{Name: d.Abbrev() + "-analog", Root: 1, G: gen.Generate(d, 0.05)})
	}
	for _, d := range []gen.Dataset{gen.Twitter, gen.DimacsUSA} {
		graphs = append(graphs, testgraph.Graph{Name: d.Abbrev() + "1", Root: 1, G: analogs1[d]()})
	}
	straddled, skipped := 0, 0
	for _, c := range graphs {
		t.Run(c.Name, func(t *testing.T) {
			cg := BuildGraph(c.G)
			a := cg.VSD
			p := row.mk(c.Root)
			// The chunk walk on the selected kernel, on its Go twin and in
			// the paper configuration, then the vector walk, each on a
			// context of its own.
			var ecs [4]*ExecContext
			for i, opt := range []Options{{Workers: 1}, {Workers: 1, AblateSIMD: true}, {Workers: 1, AblateFrontierWork: true}, {Workers: 1, AblateFullVector: true}} {
				ecs[i] = NewRunner(cg, opt).NewContext()
				defer ecs[i].Close()
			}
			walk := ecs[3]
			rng := rand.New(rand.NewSource(12))
			draw := func() uint64 {
				switch rng.Intn(5) {
				case 0:
					return p.Identity()
				case 1:
					return 1<<63 | rng.Uint64()
				case 2:
					return 0
				}
				return uint64(rng.Intn(2 * cg.N))
			}
			props, start := make([]uint64, cg.N), make([]uint64, cg.N)
			for v := range start {
				props[v], start[v] = draw(), draw()
			}
			// atZero reports whether the chunk walk skips destination d.
			atZero := func(d uint64) bool { return row.skipZero && props[d] == 0 }
			for i, ec := range ecs {
				ec.Init(p)
				// One merge slot: a body here runs every chunk as chunk 0.
				ec.props, ec.front, ec.conv, ec.mergeBuf = props, walk.front, walk.conv, sched.NewMergeBuffer(1)
				want := []string{row.path, row.path, row.path, pathVector}[i]
				if i == 2 && !row.skipZero {
					want = pathVector // the paper configuration's bfs has no early exit
				}
				if builtPath(ec, p) != want {
					t.Fatalf("context %d built the %s, not the %s", i, builtPath(ec, p), want)
				}
			}
			fz := fuseFor(p, false)
			for _, fd := range chunkDensities {
				for _, cd := range row.convs {
					fillAt(walk.front, fd, rng)
					fillAt(walk.conv, cd, rng)
					for _, chunk := range []int{1, 2, 3, 16, 64} {
						label := fmt.Sprintf("front %.1f conv %.1f chunk %d", fd, cd, chunk)
						var bodies [4]func(sched.Range, int, int, int)
						for i, ec := range ecs {
							copy(ec.accum, start)
							bodies[i] = pullSABody(ec, &fz)
						}
						for lo := 0; lo < a.NumVectors(); lo += chunk {
							rg := sched.Range{Lo: lo, Hi: min(lo+chunk, a.NumVectors())}
							if straddled == 0 && a.Index[firstTop(a, lo)] < lo {
								straddled++ // the chunk begins inside a run
							}
							var saved [4][2]uint64 // the (last, acc) each body left in its merge slot
							for i, body := range bodies {
								body(rg, 0, 0, 0)
								ecs[i].mergeBuf.Merge(func(d uint32, v uint64) { saved[i] = [2]uint64{uint64(d), v} })
							}
							want := saved[3]
							if atZero(want[0]) {
								want[1] = p.Identity()
							}
							if saved[0] != want || saved[1] != want || saved[2] != saved[3] {
								t.Fatalf("%s: chunk [%d,%d) saved %#x on %s, %#x on the Go twin, %#x in the paper configuration; the vector walk %#x, with the skip %#x",
									label, rg.Lo, rg.Hi, saved[0], vec.Kernel(), saved[1], saved[2], saved[3], want)
							}
						}
						for v := range start {
							want := walk.accum[v]
							if atZero(uint64(v)) {
								if want != start[v] {
									skipped++ // the walk stored a run the chunk walk skips
								}
								want = start[v]
							}
							if ecs[0].accum[v] != want || ecs[1].accum[v] != want || ecs[2].accum[v] != walk.accum[v] {
								t.Fatalf("%s: accum[%d]: %s %#x, Go twin %#x, paper configuration %#x; the vector walk %#x, with the skip %#x",
									label, v, vec.Kernel(), ecs[0].accum[v], ecs[1].accum[v], ecs[2].accum[v], walk.accum[v], want)
							}
						}
					}
				}
			}
		})
	}
	if straddled == 0 {
		t.Error("no chunk began inside a run")
	}
	if row.skipZero && skipped == 0 {
		t.Error("no run the chunk walk skipped at 0 was one the vector walk stored")
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
