package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// flatLanes returns an array's lane words and weights end to end, one slab
// starting at vector 0: the layout the chunk kernels walked before slabs.
func flatLanes(a *vsparse.Array) (words []uint32, weights []float32) {
	for _, s := range a.Slabs {
		words = append(words, s.Words...)
		if a.Weighted {
			weights = append(weights, s.Weights...)
		}
	}
	return words, weights
}

// TestChunkWalksAcrossSlabs: the engine's chunk walks, which call a kernel
// once per slab a chunk touches and store the run each call ends on at a
// slab boundary (slabWalk), leave chunk by chunk the same merge slot and the
// same accum words as one call of the same kernel over the whole chunk of the
// flat lanes. It covers all three kernels and their Go twins (AblateSIMD) —
// pr and wpr (rank sums, plain and weighted), cc synchronous and in place,
// and bfs — on T×1 (weighted) and D×1, on chunk grids that cross slab
// boundaries, under a frontier of density 0.5 and a converged set of 0.1.
// Every fifth label is 0, so cc's walks skip runs at slab edges too.
func TestChunkWalksAcrossSlabs(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"T1", gen.AddUniformWeights(analogs1[gen.Twitter](), 3)}, {"D1", analogs1[gen.DimacsUSA]()}}
	for _, c := range graphs {
		cg := BuildGraph(c.g)
		a := cg.VSD
		words, weights := flatLanes(a)
		rows := []struct {
			name    string
			p       apps.Program
			path    string
			inPlace bool
		}{
			{"pr", apps.NewPageRank(c.g), pathRankSum, false},
			{"wpr", apps.NewWeightedRank(c.g), pathRankSum, false},
			{"cc", apps.NewConnComp(), pathChunk, false},
			{"cc in place", apps.NewConnComp(), pathChunk, true},
			{"bfs", apps.NewBFS(1), pathMinSrc, false},
		}
		for _, row := range rows {
			for _, goTwin := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/gotwin=%v", c.name, row.name, goTwin), func(t *testing.T) {
					ec := NewRunner(cg, Options{Workers: 1, AblateSIMD: goTwin}).NewContext()
					defer ec.Close()
					p := row.p
					ec.Init(p)
					if row.inPlace {
						ec.pullsDone = inPlaceAfter
					}
					rng := rand.New(rand.NewSource(21))
					rank := p.Identity() == 0 // a rank sum's identity is +0
					for v := range ec.props {
						ec.props[v] = uint64(rng.Intn(2 * cg.N))
						if rank {
							ec.props[v] = math.Float64bits(rng.Float64())
						} else if v%5 == 0 {
							ec.props[v] = 0 // cc's walks skip this destination's run
						}
					}
					ec.contribCurrent = false
					fillAt(ec.front, 0.5, rng)
					fillAt(ec.conv, 0.1, rng)
					ec.mergeBuf = sched.NewMergeBuffer(1)
					if got := builtPath(ec, p); got != row.path {
						t.Fatalf("built the %s, not the %s", got, row.path)
					}
					fz := fuseFor(p, p.Weighted() && a.Weighted)
					start := append([]uint64(nil), ec.accum...)
					ref := reference(ec, &fz, words, weights, row.inPlace, goTwin)
					crossed := 0
					for _, chunk := range []int{7, 64, 509} {
						body := pullSABody(ec, &fz)
						copy(ec.accum, start)
						refAccum := append([]uint64(nil), start...)
						for lo := 0; lo < a.NumVectors(); lo += chunk {
							rg := sched.Range{Lo: lo, Hi: min(lo+chunk, a.NumVectors())}
							first := int(firstTop(a, rg.Lo))
							if first>>vsparse.SlabShift != int(firstTop(a, rg.Hi-1))>>vsparse.SlabShift {
								crossed++
							}
							body(rg, 0, 0, 0)
							var saved [2]uint64
							ec.mergeBuf.Merge(func(d uint32, v uint64) { saved = [2]uint64{uint64(d), v} })
							last, acc := ref(refAccum, first, rg.Lo, rg.Hi)
							if want := [2]uint64{uint64(last), acc}; saved != want {
								t.Fatalf("chunk %d [%d,%d): saved %#x, one flat call %#x", chunk, rg.Lo, rg.Hi, saved, want)
							}
						}
						for v := range refAccum {
							if ec.accum[v] != refAccum[v] {
								t.Fatalf("chunk %d: accum[%d] %#x, one flat call per chunk %#x", chunk, v, ec.accum[v], refAccum[v])
							}
						}
					}
					if crossed == 0 {
						t.Fatal("no chunk crossed a slab boundary")
					}
				})
			}
		}
	}
}

// reference returns the kernel call the walk of ec's pull makes on one chunk
// of the flat lanes: the selected kernel, or its Go twin, over the whole
// chunk at once, with the frontier and converged words, props and contrib
// the engine's body reads.
func reference(ec *ExecContext, fz *fuse, words []uint32, weights []float32, inPlace, goTwin bool) func(accum []uint64, first, lo, hi int) (int, uint64) {
	index := ec.g.VSD.Index
	rankSum, minProp, minSrc := vec.RankSumChunk, vec.MinPropChunk, vec.MinSrcChunk
	if goTwin {
		rankSum, minProp, minSrc = vec.RankSumChunkGo, vec.MinPropChunkGo, vec.MinSrcChunkGo
	}
	if !fz.weighted {
		weights = nil
	}
	switch fz.kind {
	case apps.FusedRankSum:
		contrib := ec.currentContrib(fz.scale)
		return func(accum []uint64, first, lo, hi int) (int, uint64) {
			return rankSum(words, 0, index, contrib, weights, accum, first, lo, hi)
		}
	case apps.FusedMinProp:
		front := ec.front.Words()
		if inPlace {
			front = nil
		}
		return func(accum []uint64, first, lo, hi int) (int, uint64) {
			return minProp(words, 0, index, ec.props, front, accum, first, first, lo, hi, inPlace, ec.skipsZero(fz.p, fz.kind))
		}
	}
	return func(accum []uint64, first, lo, hi int) (int, uint64) {
		return minSrc(words, 0, index, ec.front.Words(), ec.conv.Words(), accum, first, lo, hi)
	}
}

// copiedSlabs counts the slabs of next that hold lanes and do not share
// prev's memory for them: the slabs PatchGraph encoded again.
func copiedSlabs(prev, next *vsparse.Array) (copied, withLanes int) {
	for s, sl := range next.Slabs {
		if len(sl.Words) == 0 {
			continue
		}
		withLanes++
		if s >= len(prev.Slabs) || unsafe.SliceData(sl.Words) != unsafe.SliceData(prev.Slabs[s].Words) {
			copied++
		}
	}
	return copied, withLanes
}

// insertBatch draws size uniform insertions over n vertices, no self-loops:
// the shape of a served mutation batch.
func insertBatch(rng *rand.Rand, n, size int) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, size)
	for i := range ops {
		src, dst := uint32(rng.Intn(n)), uint32(rng.Intn(n-1))
		if dst >= src {
			dst++
		}
		ops[i] = graph.EdgeOp{Src: src, Dst: dst}
	}
	return ops
}

// twitter4 is the T×4 analog, a served version's size, generated once per
// test binary; no test may modify it.
var twitter4 = sync.OnceValue(func() *Graph { return BuildGraph(gen.Generate(gen.Twitter, 4)) })

// TestPatchGraphSharesSlabs: on T×4, a one-edge batch re-encodes at most one
// slab per array and shares every other one with its predecessor by pointer,
// and a 16-edge batch re-encodes at most 16 per array; every patched array
// is valid.
func TestPatchGraphSharesSlabs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates T×4")
	}
	prev := twitter4()
	rng := rand.New(rand.NewSource(8))
	for _, size := range []int{1, 16} {
		for range 4 {
			next := PatchGraph(prev, insertBatch(rng, prev.N, size))
			for _, arr := range []struct {
				name       string
				prev, next *vsparse.Array
			}{{"VSS", prev.VSS, next.VSS}, {"VSD", prev.VSD, next.VSD}} {
				if err := arr.next.Validate(); err != nil {
					t.Fatalf("b%d %s: %v", size, arr.name, err)
				}
				if copied, _ := copiedSlabs(arr.prev, arr.next); copied > size {
					t.Errorf("b%d %s: %d slabs encoded again, want at most %d", size, arr.name, copied, size)
				}
			}
		}
	}
}

// BenchmarkPatchGraph times PatchGraph on T×4 at the three batch sizes a
// served mutation workload cycles through, off a predecessor that has built
// the memos a served unweighted version builds (the plain rank scale and the
// census degrees; only wpr, which needs weights, asks for the weighted
// scale), and reports the share of the slabs that hold lanes that each
// version encodes again rather than shares. version-ms is what a new version
// costs before its first pr and census: PatchGraph plus the successor's first
// RankScale(false) and outDegrees.
func BenchmarkPatchGraph(b *testing.B) {
	prev := memoized(PatchGraph(twitter4(), nil), plainScale|outDegs) // twitter4 itself stays memo-free
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("b%d", size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(size)))
			batches := make([][]graph.EdgeOp, 16)
			for i := range batches {
				batches[i] = insertBatch(rng, prev.N, size)
			}
			copied, withLanes := 0, 0
			var patch, version time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				next := PatchGraph(prev, batches[i%len(batches)])
				patched := time.Now()
				next.RankScale(false)
				next.outDegrees()
				patch, version = patch+patched.Sub(start), version+time.Since(start)
				b.StopTimer()
				for _, arr := range [][2]*vsparse.Array{{prev.VSS, next.VSS}, {prev.VSD, next.VSD}} {
					c, w := copiedSlabs(arr[0], arr[1])
					copied, withLanes = copied+c, withLanes+w
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(patch.Microseconds())/1e3/float64(b.N), "ms/op")
			b.ReportMetric(float64(version.Microseconds())/1e3/float64(b.N), "version-ms")
			b.ReportMetric(float64(copied)/float64(withLanes), "slabs-copied")
		})
	}
}
