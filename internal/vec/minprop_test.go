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

// The selected chunk walk (the AVX2 assembly where the CPU has it) against the
// Go twin and against a lane-by-lane reference, on the returned pair and on
// every accum word. On a purego build, or a CPU without AVX2, the first two
// are the same function; CI runs the tests on both.

const identity = ^uint64(0)

// perLaneChunk is the chunk walk written vector by vector from own, the
// owner of each vector (owners), not from the kernels' run-bound walk of
// index: every live lane folds props[src] into its destination's aggregate, a
// destination change flushes the previous one into accum, and the chunk's
// last destination is returned unflushed. In place, a live lane whose source
// lies between the chunk's first destination and the current one also folds
// accum[src] as this walk's own flushes have left it. With skipZero, a
// destination whose props is 0 folds nothing: its accum word is left as it
// was and, as the last destination, it returns Identity.
func perLaneChunk(words []uint32, own []int, props, front, accum []uint64, lo, hi int, inPlace, skipZero bool) (last int, acc uint64) {
	last, acc = -1, identity
	first := uint64(own[lo])
	for vi := lo; vi < hi; vi++ {
		v := vec.U32x4(words[vi*vec.Lanes:])
		if dst := own[vi]; dst != last {
			if last >= 0 {
				accum[last] = min(accum[last], acc)
			}
			last, acc = dst, identity
		}
		if skipZero && props[last] == 0 {
			continue
		}
		for _, w := range v {
			n := uint64(w & vsparse.VertexMask)
			if w&vsparse.ValidBit == 0 || (front != nil && front[n/64]&(1<<(n%64)) == 0) {
				continue
			}
			acc = min(acc, props[n])
			if inPlace && n >= first && n < uint64(last) {
				acc = min(acc, accum[n])
			}
		}
	}
	return last, acc
}

// minPropImpl is one implementation of the min-prop chunk walk under test.
type minPropImpl struct {
	name string
	run  func(words []uint32, base int, index []int, props, front, accum []uint64, first, dst, lo, hi int, inPlace, skipZero bool) (int, uint64)
}

func minPropImpls() []minPropImpl {
	return []minPropImpl{{vec.Kernel() + " kernel", vec.MinPropChunk}, {"Go twin", vec.MinPropChunkGo}}
}

// minFixture is one set of chunk-walk inputs over n vertices. Its props mix
// small labels, 0, Identity, and values with bit 63 set — a signed
// comparison would order the last below the first — and accum starts the same
// way, so an interior store that should not lower a word is seen not to, and
// a destination at 0 is skipped or walked as the call asks.
type minFixture struct {
	props, accum []uint64
	// kernelAccum, when set, returns the copy of accum the selected kernel
	// runs on (the guard-page test places it before an inaccessible page).
	kernelAccum func() []uint64
}

func newMinFixture(n int, seed int64) minFixture {
	rng := rand.New(rand.NewSource(seed))
	draw := func() uint64 {
		switch rng.Intn(6) {
		case 0:
			return identity
		case 1:
			return 1<<63 | rng.Uint64()
		case 2:
			return identity - uint64(rng.Intn(3))
		case 3:
			return 0
		default:
			return uint64(rng.Intn(4 * n))
		}
	}
	f := minFixture{props: make([]uint64, n), accum: make([]uint64, n)}
	for v := range f.props {
		f.props[v], f.accum[v] = draw(), draw()
	}
	return f
}

// frontierAt returns an n-vertex frontier bitset holding each vertex with the
// given probability (1 holds all of them, 0 none).
func frontierAt(n int, density float64, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	front := make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		if density >= 1 || rng.Float64() < density {
			front[v/64] |= 1 << (v % 64)
		}
	}
	return front
}

// chunkAgrees runs one chunk through the selected kernel, the Go twin and the
// per-lane reference, each on its own copy of accum, with the in-place window
// on and off and the skip of destinations at 0 on and off, and reports a
// mismatch. It also reports whether the window changed anything, so a test
// can tell that it was exercised.
func (f minFixture) chunkAgrees(words []uint32, index []int, front []uint64, lo, hi int) (windowed bool, err error) {
	own := owners(index)
	dst := firstDst(own, lo, hi)
	for _, skipZero := range []bool{false, true} {
		var sync []uint64
		for _, inPlace := range []bool{false, true} {
			kAccum, tAccum, rAccum := slices.Clone(f.accum), slices.Clone(f.accum), slices.Clone(f.accum)
			if f.kernelAccum != nil {
				kAccum = f.kernelAccum()
			}
			kLast, kAcc := vec.MinPropChunk(from(words, lo), lo, index, f.props, front, kAccum, dst, dst, lo, hi, inPlace, skipZero)
			tLast, tAcc := vec.MinPropChunkGo(from(words, lo), lo, index, f.props, front, tAccum, dst, dst, lo, hi, inPlace, skipZero)
			rLast, rAcc := dst, identity
			if lo < hi {
				rLast, rAcc = perLaneChunk(words, own, f.props, front, rAccum, lo, hi, inPlace, skipZero)
			}
			if kLast != rLast || kAcc != rAcc || tLast != rLast || tAcc != rAcc {
				return false, fmt.Errorf("in place %v, skip %v: returned %s (%d, %#x), Go twin (%d, %#x), per-lane (%d, %#x)",
					inPlace, skipZero, vec.Kernel(), kLast, kAcc, tLast, tAcc, rLast, rAcc)
			}
			for v := range rAccum {
				if kAccum[v] != rAccum[v] || tAccum[v] != rAccum[v] {
					return false, fmt.Errorf("in place %v, skip %v: accum[%d]: %s %#x, Go twin %#x, per-lane %#x",
						inPlace, skipZero, v, vec.Kernel(), kAccum[v], tAccum[v], rAccum[v])
				}
			}
			if !inPlace {
				sync = append(rAccum, rAcc)
			} else if !slices.Equal(sync, append(rAccum, rAcc)) {
				windowed = true
			}
		}
	}
	return windowed, nil
}

// frontiers is every frontier a chunk is walked under: ungated (nil), and
// gated at densities 0, 0.1, 0.5 and 1.
func frontiers(n int, seed int64) map[string][]uint64 {
	out := map[string][]uint64{"ungated": nil}
	for _, d := range []float64{0, 0.1, 0.5, 1} {
		out[fmt.Sprintf("density %.1f", d)] = frontierAt(n, d, seed)
	}
	return out
}

// TestMinPropChunkCorpus: every corpus graph's pull array, cut into a chunk
// pair at every vector boundary — [0, cut) and [cut, end), so a chunk edge
// falls inside hub runs (a chunk whose first run began in the previous one),
// between one-vector mesh runs and next to destinations with no run, which
// then lie inside the window unstored — plus a chunk of at most 16 vectors
// from every boundary, under every frontier, in place and not.
func TestMinPropChunkCorpus(t *testing.T) {
	windowed := 0
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.G, true))
		words, _ := flat(a)
		f := newMinFixture(a.N, 5)
		nv := a.NumVectors()
		for name, front := range frontiers(a.N, 6) {
			for cut := 0; cut <= nv; cut++ {
				for _, s := range [][2]int{{0, cut}, {cut, nv}, {cut, min(cut+16, nv)}} {
					w, err := f.chunkAgrees(words, a.Index, front, s[0], s[1])
					if err != nil {
						t.Fatalf("%s %s chunk [%d,%d): %v", c.Name, name, s[0], s[1], err)
					}
					if w {
						windowed++
					}
				}
			}
		}
	}
	if windowed == 0 {
		t.Error("the in-place window changed no chunk of any corpus graph")
	}
}

// TestMinPropChunkQuick: random arrays of 0 to 40 vectors — destinations with
// zero to three vectors each, random valid prefixes, random ids — cut at a
// random chunk, in place and not.
func TestMinPropChunkQuick(t *testing.T) {
	const n = 131
	f := newMinFixture(n, 9)
	fronts := frontiers(n, 10)
	windowed := 0
	check := func(seed int64, nvec uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		words, index := randomArray(rng, n, int(nvec)%41)
		nv := len(words) / vec.Lanes
		lo := rng.Intn(nv + 1)
		hi := lo + rng.Intn(nv-lo+1)
		for name, front := range fronts {
			w, err := f.chunkAgrees(words, index, front, lo, hi)
			if err != nil {
				t.Logf("seed %d, %d vectors, %s chunk [%d,%d): %v", seed, nv, name, lo, hi, err)
				return false
			}
			if w {
				windowed++
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
	if windowed == 0 {
		t.Error("the in-place window changed no chunk")
	}
}

// randomArray builds a Vector-Sparse word array of exactly vectors vectors over
// n vertices, destination by destination in id order, and its index.
func randomArray(rng *rand.Rand, n, vectors int) (words []uint32, index []int) {
	words = make([]uint32, vectors*vec.Lanes)
	index = make([]int, n+1)
	vi := 0
	for dst := 0; dst < n; dst++ {
		index[dst] = vi
		k := rng.Intn(4)
		if dst == n-1 {
			k = vectors - vi
		}
		for ; k > 0 && vi < vectors; k-- {
			var ids [vec.Lanes]uint32
			for lane := range ids {
				ids[lane] = uint32(rng.Intn(n))
			}
			store(words, vi, vsparse.EncodeVector(ids, 1+rng.Intn(vec.Lanes)))
			vi++
		}
	}
	index[n] = vi
	return words, index
}
