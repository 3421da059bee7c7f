package vec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/testgraph"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// The selected min-src chunk walk (the AVX2 assembly where the CPU has it)
// against the Go twin and against a lane-by-lane reference, on the returned
// pair and on every accum word.

// perLaneMinSrc is the min-src chunk walk written vector by vector from own,
// the owner of each vector (owners), not from the kernels' run-bound walk of
// index: a destination change flushes the previous one's aggregate into
// accum, a converged destination's vectors are passed over, and in any other
// the first live lane the walk meets sets the aggregate, after which the
// destination's later vectors are passed over. The chunk's last destination
// is returned unflushed.
func perLaneMinSrc(words []uint32, own []int, front, conv, accum []uint64, lo, hi int) (last int, acc uint64) {
	last, acc = -1, identity
	for vi := lo; vi < hi; vi++ {
		v := vec.U32x4(words[vi*vec.Lanes:])
		if dst := own[vi]; dst != last {
			if last >= 0 {
				accum[last] = min(accum[last], acc)
			}
			last, acc = dst, identity
		}
		if conv[last/64]&(1<<(last%64)) != 0 || acc != identity {
			continue
		}
		for _, w := range v {
			if n := w & vsparse.VertexMask; w&vsparse.ValidBit != 0 && front[n/64]&(1<<(n%64)) != 0 {
				acc = uint64(n)
				break
			}
		}
	}
	return last, acc
}

// srcFixture is one set of min-src inputs over n vertices: accum as
// minFixture draws it, and the converged bitsets a chunk is walked under.
type srcFixture struct {
	accum []uint64
	convs map[string][]uint64
	// kernelAccum, when set, returns the copy of accum the selected kernel
	// runs on (the guard-page test places it before an inaccessible page).
	kernelAccum func() []uint64
}

func newSrcFixture(n int, seed int64) srcFixture {
	f := srcFixture{accum: newMinFixture(n, seed).accum, convs: map[string][]uint64{}}
	for _, d := range []float64{0, 0.1, 0.5, 1} {
		f.convs[fmt.Sprintf("conv %.1f", d)] = frontierAt(n, d, seed+1)
	}
	return f
}

// chunkAgrees runs one chunk through the selected kernel, the Go twin and the
// per-lane reference under one frontier and every converged set, each on its
// own copy of accum, and reports a mismatch.
func (f srcFixture) chunkAgrees(words []uint32, index []int, front []uint64, lo, hi int) error {
	own := owners(index)
	dst := firstDst(own, lo, hi)
	for name, conv := range f.convs {
		kAccum, tAccum, rAccum := slices.Clone(f.accum), slices.Clone(f.accum), slices.Clone(f.accum)
		if f.kernelAccum != nil {
			kAccum = f.kernelAccum()
		}
		kLast, kAcc := vec.MinSrcChunk(from(words, lo), lo, index, front, conv, kAccum, dst, lo, hi)
		tLast, tAcc := vec.MinSrcChunkGo(from(words, lo), lo, index, front, conv, tAccum, dst, lo, hi)
		rLast, rAcc := dst, identity
		if lo < hi {
			rLast, rAcc = perLaneMinSrc(words, own, front, conv, rAccum, lo, hi)
		}
		if kLast != rLast || kAcc != rAcc || tLast != rLast || tAcc != rAcc {
			return fmt.Errorf("%s: returned %s (%d, %#x), Go twin (%d, %#x), per-lane (%d, %#x)",
				name, vec.Kernel(), kLast, kAcc, tLast, tAcc, rLast, rAcc)
		}
		for v := range rAccum {
			if kAccum[v] != rAccum[v] || tAccum[v] != rAccum[v] {
				return fmt.Errorf("%s: accum[%d]: %s %#x, Go twin %#x, per-lane %#x",
					name, v, vec.Kernel(), kAccum[v], tAccum[v], rAccum[v])
			}
		}
	}
	return nil
}

// TestMinSrcChunkCorpus: every corpus graph's pull array, cut as
// TestMinPropChunkCorpus cuts it, under frontiers and converged sets of
// density 0, 0.1, 0.5 and 1.
func TestMinSrcChunkCorpus(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.G, true))
		words, _ := flat(a)
		f := newSrcFixture(a.N, 5)
		nv := a.NumVectors()
		for name, front := range frontiers(a.N, 6) {
			if front == nil {
				continue // bfs's pull is always gated
			}
			for cut := 0; cut <= nv; cut++ {
				for _, s := range [][2]int{{0, cut}, {cut, nv}, {cut, min(cut+16, nv)}} {
					if err := f.chunkAgrees(words, a.Index, front, s[0], s[1]); err != nil {
						t.Fatalf("%s %s chunk [%d,%d): %v", c.Name, name, s[0], s[1], err)
					}
				}
			}
		}
	}
}

// TestMinSrcChunkQuick: random arrays of 0 to 40 vectors — destinations with
// zero to three vectors each, random valid prefixes, random ids in no order,
// so the first live lane is not always the least — cut at a random chunk.
func TestMinSrcChunkQuick(t *testing.T) {
	const n = 131
	f := newSrcFixture(n, 9)
	fronts := frontiers(n, 10)
	delete(fronts, "ungated")
	check := func(seed int64, nvec uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words, index := randomArray(rng, n, int(nvec)%41)
		nv := len(words) / vec.Lanes
		lo := rng.Intn(nv + 1)
		hi := lo + rng.Intn(nv-lo+1)
		for name, front := range fronts {
			if err := f.chunkAgrees(words, index, front, lo, hi); err != nil {
				t.Logf("seed %d, %d vectors, %s chunk [%d,%d): %v", seed, nv, name, lo, hi, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, vectors := range []uint8{0, 1, 40} {
		if !check(int64(vectors), vectors) {
			t.Errorf("kernels disagree on an array of %d vectors", vectors)
		}
	}
}
