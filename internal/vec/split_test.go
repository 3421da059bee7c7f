package vec_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/csr"
	"repro/internal/testgraph"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// A Vector-Sparse array is stored in slabs of whole destination runs
// (vsparse.Slab), so the engine walks a chunk that crosses a slab boundary in
// one call per slab it touches: each call takes its slab's words and base,
// every call but the last ends on a complete run, which the caller stores as
// the kernel stores an interior one, and the last call's run is the chunk's.
// The tests here hold that walk to one call over the whole chunk, for all
// three kernels and their Go twins, bit for bit on the returned pair and on
// every accum word.

// splitWalk walks chunk [lo, hi), whose first vector dst owns, as the engine
// walks it when slabs hold perSlab destinations each: call runs one slab's
// share with that slab's base and the chunk's first destination, and store
// folds a share's last run into accum.
func splitWalk(index []int, perSlab, dst, lo, hi int,
	call func(base, first, dst, lo, hi int) (int, uint64), store func(last int, acc uint64)) (int, uint64) {
	n := len(index) - 1
	first := dst
	for {
		slab := dst / perSlab
		end := index[min((slab+1)*perSlab, n)]
		if end >= hi {
			return call(index[slab*perSlab], first, dst, lo, hi)
		}
		if end > lo {
			store(call(index[slab*perSlab], first, dst, lo, end))
			lo = end
		}
		dst = (slab + 1) * perSlab
	}
}

// splitGrids is every (chunk, slab size) pair a corpus array is split on:
// chunks of 3 and 16 vectors and the whole array, slabs of 1, 2 and 5
// destinations (a cut at every run end, at every other, and at few).
func splitGrids(nv int) (chunks [][2]int, perSlab []int) {
	for _, size := range []int{3, 16, max(nv, 1)} {
		chunks = append(chunks, grid(nv, size)...)
	}
	return chunks, []int{1, 2, 5}
}

// TestRankSumChunkSplitAtSlabs: the rank-sum walk of every corpus pull array,
// plain and weighted, split at slab boundaries against one call per chunk.
func TestRankSumChunkSplitAtSlabs(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.WithWeights(), true))
		words, weights := flat(a)
		f := newRankFixture(a.N, 5)
		own := owners(a.Index)
		chunks, slabs := splitGrids(a.NumVectors())
		for _, ws := range [][]float32{nil, weights} {
			for _, k := range rankImpls() {
				for _, perSlab := range slabs {
					whole, split := slices.Clone(f.accum), slices.Clone(f.accum)
					for _, ch := range chunks {
						lo, hi := ch[0], ch[1]
						dst := firstDst(own, lo, hi)
						wLast, wAcc := k.run(words, 0, a.Index, f.contrib, ws, whole, dst, lo, hi)
						sLast, sAcc := splitWalk(a.Index, perSlab, dst, lo, hi,
							func(base, _, dst, lo, hi int) (int, uint64) {
								return k.run(from(words, base), base, a.Index, f.contrib, from(ws, base), split, dst, lo, hi)
							},
							func(last int, acc uint64) {
								split[last] = math.Float64bits(math.Float64frombits(split[last]) + math.Float64frombits(acc))
							})
						if sLast != wLast || sAcc != wAcc {
							t.Fatalf("%s weighted %v, %s, slabs of %d, chunk [%d,%d): split returned (%d, %#x), whole (%d, %#x)",
								c.Name, ws != nil, k.name, perSlab, lo, hi, sLast, sAcc, wLast, wAcc)
						}
					}
					if err := sameAccum(whole, split); err != nil {
						t.Fatalf("%s weighted %v, %s, slabs of %d: %v", c.Name, ws != nil, k.name, perSlab, err)
					}
				}
			}
		}
	}
}

// TestMinPropChunkSplitAtSlabs: the min-prop walk of every corpus pull array,
// under every frontier, synchronous and in place, with destinations at 0
// skipped and walked, split at slab boundaries against one call per chunk. In
// place, every call gets the chunk's first destination, so a later slab's
// window holds the runs the earlier calls and their caller stored. A slab's
// last run at 0 comes back as Identity, which the caller's store leaves as
// the whole call leaves an interior run at 0.
func TestMinPropChunkSplitAtSlabs(t *testing.T) {
	impls := minPropImpls()
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.G, true))
		words, _ := flat(a)
		f := newMinFixture(a.N, 5)
		own := owners(a.Index)
		chunks, slabs := splitGrids(a.NumVectors())
		for name, front := range frontiers(a.N, 6) {
			for _, mode := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				inPlace, skipZero := mode[0], mode[1]
				for _, k := range impls {
					for _, perSlab := range slabs {
						whole, split := slices.Clone(f.accum), slices.Clone(f.accum)
						for _, ch := range chunks {
							lo, hi := ch[0], ch[1]
							dst := firstDst(own, lo, hi)
							wLast, wAcc := k.run(words, 0, a.Index, f.props, front, whole, dst, dst, lo, hi, inPlace, skipZero)
							sLast, sAcc := splitWalk(a.Index, perSlab, dst, lo, hi,
								func(base, first, dst, lo, hi int) (int, uint64) {
									return k.run(from(words, base), base, a.Index, f.props, front, split, first, dst, lo, hi, inPlace, skipZero)
								},
								func(last int, acc uint64) { split[last] = min(split[last], acc) })
							if sLast != wLast || sAcc != wAcc {
								t.Fatalf("%s %s in place %v skip %v, %s, slabs of %d, chunk [%d,%d): split returned (%d, %#x), whole (%d, %#x)",
									c.Name, name, inPlace, skipZero, k.name, perSlab, lo, hi, sLast, sAcc, wLast, wAcc)
							}
						}
						if err := sameAccum(whole, split); err != nil {
							t.Fatalf("%s %s in place %v skip %v, %s, slabs of %d: %v", c.Name, name, inPlace, skipZero, k.name, perSlab, err)
						}
					}
				}
			}
		}
	}
}

// TestMinSrcChunkSplitAtSlabs: the min-src walk of every corpus pull array,
// under every gated frontier and converged set, split at slab boundaries
// against one call per chunk.
func TestMinSrcChunkSplitAtSlabs(t *testing.T) {
	impls := []struct {
		name string
		run  func(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (int, uint64)
	}{{vec.Kernel() + " kernel", vec.MinSrcChunk}, {"Go twin", vec.MinSrcChunkGo}}
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.G, true))
		words, _ := flat(a)
		f := newSrcFixture(a.N, 5)
		own := owners(a.Index)
		chunks, slabs := splitGrids(a.NumVectors())
		for name, front := range frontiers(a.N, 6) {
			if front == nil {
				continue // bfs's pull is always gated
			}
			for convName, conv := range f.convs {
				for _, k := range impls {
					for _, perSlab := range slabs {
						whole, split := slices.Clone(f.accum), slices.Clone(f.accum)
						for _, ch := range chunks {
							lo, hi := ch[0], ch[1]
							dst := firstDst(own, lo, hi)
							wLast, wAcc := k.run(words, 0, a.Index, front, conv, whole, dst, lo, hi)
							sLast, sAcc := splitWalk(a.Index, perSlab, dst, lo, hi,
								func(base, _, dst, lo, hi int) (int, uint64) {
									return k.run(from(words, base), base, a.Index, front, conv, split, dst, lo, hi)
								},
								func(last int, acc uint64) { split[last] = min(split[last], acc) })
							if sLast != wLast || sAcc != wAcc {
								t.Fatalf("%s %s %s, %s, slabs of %d, chunk [%d,%d): split returned (%d, %#x), whole (%d, %#x)",
									c.Name, name, convName, k.name, perSlab, lo, hi, sLast, sAcc, wLast, wAcc)
							}
						}
						if err := sameAccum(whole, split); err != nil {
							t.Fatalf("%s %s %s, %s, slabs of %d: %v", c.Name, name, convName, k.name, perSlab, err)
						}
					}
				}
			}
		}
	}
}

// sameAccum reports the first accum word on which a split walk left another
// value than the whole-chunk walk.
func sameAccum(whole, split []uint64) error {
	for v := range whole {
		if whole[v] != split[v] {
			return fmt.Errorf("accum[%d]: split %#x, whole %#x", v, split[v], whole[v])
		}
	}
	return nil
}
