//go:build linux

package vec_test

import (
	"math"
	"math/rand"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/vec"
	"repro/internal/vsparse"
)

// guarded returns n bytes that end exactly where an inaccessible page
// begins: a load of even one byte past them faults.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return mem[size-page-n : size-page]
}

// guardedSlice is guarded as a slice of n values of type T.
func guardedSlice[T any](t *testing.T, n int) []T {
	t.Helper()
	return unsafe.Slice((*T)(unsafe.Pointer(&guarded(t, n*int(unsafe.Sizeof(*new(T))))[0])), n)
}

// TestRankSumChunkNeverReadsPastLen walks chunks whose words, weights, index,
// accum and contrib each end on the last byte before a guard page, plain and
// weighted: the chunk's last vector is the array's last, one vector per
// destination and the destinations the top ids, so index is read to its last
// word and the interior stores reach accum[n−2], the last word of the n−1
// the kernel is given (the last destination is returned, never stored); the
// lanes carry the top ids too, so the gather reads to within a few words of
// contrib's end. Each chunk's words and weights are passed from its first
// vector on, with that vector as base (chunkAgrees), as a slab's are: every
// chunk but the first runs with a nonzero base.
func TestRankSumChunkNeverReadsPastLen(t *testing.T) {
	const n = 64
	f := newRankFixture(n, 4)
	contrib := guardedSlice[float64](t, n)
	copy(contrib, f.contrib)
	f.contrib = contrib
	accum := guardedSlice[uint64](t, n-1)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		lanes := vectors * vec.Lanes
		words := guardedSlice[uint32](t, lanes)
		weights := guardedSlice[float32](t, lanes)
		index := guardedSlice[int](t, n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint32
			for lane := range ids {
				ids[lane] = uint32((7*v + 3*lane + n - 8) % n)
			}
			valid := 1 + v%vec.Lanes
			store(words, v, vsparse.EncodeVector(ids, valid))
			for lane := 0; lane < vec.Lanes; lane++ {
				weights[v*vec.Lanes+lane] = 0
				if lane < valid {
					weights[v*vec.Lanes+lane] = float32(1 + lane)
				}
			}
		}
		for dst := 0; dst <= n; dst++ {
			index[dst] = max(0, dst-(n-vectors))
		}
		for _, ws := range [][]float32{nil, weights} {
			for lo := 0; lo < vectors; lo++ {
				if err := f.chunkAgrees(words, index, ws, lo, vectors); err != nil {
					t.Errorf("%d vectors, weighted %v, chunk [%d,%d): %v", vectors, ws != nil, lo, vectors, err)
				}
			}
		}
	}
}

// TestMinPropChunkNeverReadsPastLen walks chunks whose words, index, props,
// accum and frontier words each end on the last byte before a guard page, the
// chunk's last vector the array's last, in place and not: the top ids the
// lanes carry lie inside the in-place window of the chunk's later runs, so
// the accum gather reads to within one word of the guard page (the window
// ends below the last destination, so no read can reach accum[n−1]). Words
// are passed from the chunk's first vector on with a nonzero base, as above.
func TestMinPropChunkNeverReadsPastLen(t *testing.T) {
	const n = 70 // two frontier words, the second partly used
	f := newMinFixture(n, 4)
	props := guardedSlice[uint64](t, n)
	copy(props, f.props)
	f.props = props
	accum := guardedSlice[uint64](t, n)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		words := guardedSlice[uint32](t, vectors*vec.Lanes)
		index := guardedSlice[int](t, n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint32
			for lane := range ids {
				ids[lane] = uint32((7*v + 3*lane + n - 8) % n) // the top ids: the last frontier word
			}
			store(words, v, vsparse.EncodeVector(ids, 1+v%vec.Lanes))
		}
		for dst := 0; dst <= n; dst++ {
			index[dst] = max(0, dst-(n-vectors))
		}
		for name, ff := range frontiers(n, 3) {
			front := ff
			if ff != nil {
				front = guardedSlice[uint64](t, len(ff))
				copy(front, ff)
			}
			for lo := 0; lo < vectors; lo++ {
				if _, err := f.chunkAgrees(words, index, front, lo, vectors); err != nil {
					t.Errorf("%d vectors, %s, chunk [%d,%d): %v", vectors, name, lo, vectors, err)
				}
			}
		}
	}
}

// TestMinSrcChunkNeverReadsPastLen walks chunks whose words, index, accum,
// frontier words and converged words each end on the last byte before a
// guard page, the chunk's last vector the array's last and its destinations
// the top ids, so the conv and accum reads reach the last word of each; the
// lanes carry the top ids too, so the frontier gather reads the last frontier
// word. Words are passed from the chunk's first vector on with a nonzero
// base, as above.
func TestMinSrcChunkNeverReadsPastLen(t *testing.T) {
	const n = 70 // two bitset words, the second partly used
	f := newSrcFixture(n, 4)
	for name, c := range f.convs {
		f.convs[name] = guardedSlice[uint64](t, len(c))
		copy(f.convs[name], c)
	}
	accum := guardedSlice[uint64](t, n)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		words := guardedSlice[uint32](t, vectors*vec.Lanes)
		index := guardedSlice[int](t, n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint32
			for lane := range ids {
				ids[lane] = uint32((7*v + 3*lane + n - 8) % n)
			}
			store(words, v, vsparse.EncodeVector(ids, 1+v%vec.Lanes))
		}
		for dst := 0; dst <= n; dst++ {
			index[dst] = max(0, dst-(n-vectors))
		}
		for name, ff := range frontiers(n, 3) {
			if ff == nil {
				continue
			}
			front := guardedSlice[uint64](t, len(ff))
			copy(front, ff)
			for lo := 0; lo < vectors; lo++ {
				if err := f.chunkAgrees(words, index, front, lo, vectors); err != nil {
					t.Errorf("%d vectors, %s, chunk [%d,%d): %v", vectors, name, lo, vectors, err)
				}
			}
		}
	}
}

// sparse returns a slice of n words whose first and last pages alone are
// backed: the rest of the range is reserved and inaccessible, so a kernel
// can index the top of a 2^31-entry array without it being allocated.
func sparse[T any](t *testing.T, n int) []T {
	t.Helper()
	size := n * int(unsafe.Sizeof(*new(T)))
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, p := range [][]byte{mem[:page], mem[size-page:]} {
		if err := syscall.Mprotect(p, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

// TestChunkKernelsTopID runs every kernel, and its Go twin, on lanes that
// carry the largest id a lane can hold, 2^31 − 1, next to lanes carrying 0:
// the gathers read contrib, props and the frontier words at both ends of
// 2^31-vertex arrays. The assembly takes each lane word as a signed dword
// index through a base biased by 2^31 elements, so a slip of the bias or of
// the id mask reads the wrong end or faults on the reserved middle. The two
// vectors are vectors 5 and 6 of their array, passed as a slab with base 5.
func TestChunkKernelsTopID(t *testing.T) {
	const top = 1<<31 - 1
	var words []uint32
	for _, v := range []vec.U32x4{
		vsparse.EncodeVector([vec.Lanes]uint32{top, 0, top, top}, 3), // dst 0
		vsparse.EncodeVector([vec.Lanes]uint32{0, top, top, top}, 2), // dst 1
	} {
		words = append(words, v[:]...)
	}
	const base = 5
	index := []int{base, base + 1, base + 2}

	contrib := sparse[float64](t, 1<<31)
	contrib[0], contrib[top] = 0.25, 1e-17
	for _, k := range rankImpls() {
		accum := []uint64{math.Float64bits(1), 0}
		last, acc := k.run(words, base, index, contrib, nil, accum, 0, base, base+2)
		// dst 0: lanes top, 0, top; dst 1: lanes 0, top.
		if want := (1e-17 + 0.25) + (1e-17 + 0.0); accum[0] != math.Float64bits(1+want) {
			t.Errorf("%s: stored %v, want 1 + %v", k.name, math.Float64frombits(accum[0]), want)
		}
		if want := (0.25 + 1e-17) + (0.0 + 0.0); last != 1 || acc != math.Float64bits(want) {
			t.Errorf("%s: returned (%d, %v), want (1, %v)", k.name, last, math.Float64frombits(acc), want)
		}
	}

	// Destination 1's own label is 9: nonzero, so its run is walked, and
	// above every lane's label, so it is no lane's minimum.
	props := sparse[uint64](t, 1<<31)
	props[0], props[1], props[top] = 7, 9, 3
	frontTop, frontZero := sparse[uint64](t, 1<<25), sparse[uint64](t, 1<<25)
	frontTop[top>>6] = 1 << (top & 63)
	frontZero[0] = 1
	minProps := minPropImpls()
	for _, c := range []struct {
		name      string
		front     []uint64
		prop, src [2]uint64 // each destination's min prop and min live source
	}{
		{"ungated", nil, [2]uint64{3, 3}, [2]uint64{}},
		{"top only", frontTop, [2]uint64{3, 3}, [2]uint64{top, top}},
		{"0 only", frontZero, [2]uint64{7, 7}, [2]uint64{0, 0}},
	} {
		for _, k := range minProps {
			accum := []uint64{identity, identity}
			last, acc := k.run(words, base, index, props, c.front, accum, 0, 0, base, base+2, false, true)
			if got := [2]uint64{accum[0], acc}; last != 1 || got != c.prop {
				t.Errorf("min-prop %s, %s: stored and returned %v (last %d), want %v (last 1)", k.name, c.name, got, last, c.prop)
			}
		}
		if c.front == nil {
			continue
		}
		conv := []uint64{0}
		for _, k := range []struct {
			name string
			run  func(words []uint32, base int, index []int, front, conv, accum []uint64, dst, lo, hi int) (int, uint64)
		}{{vec.Kernel() + " kernel", vec.MinSrcChunk}, {"Go twin", vec.MinSrcChunkGo}} {
			accum := []uint64{identity, identity}
			last, acc := k.run(words, base, index, c.front, conv, accum, 0, base, base+2)
			if got := [2]uint64{accum[0], acc}; last != 1 || got != c.src {
				t.Errorf("min-src %s, %s: stored and returned %v (last %d), want %v (last 1)", k.name, c.name, got, last, c.src)
			}
		}
	}

	// A destination at 0, ungated: skipped, it stores nothing (dst 0) or
	// returns Identity (dst 1); walked, it stores or returns its minimum. With
	// destination 0 at 0, both runs read lane 0's label, 0, from the bottom of
	// props.
	for _, c := range []struct {
		name         string
		zero         int
		skip, noSkip [2]uint64 // stored and returned, skipped and walked
	}{
		{"dst 1 at 0", 1, [2]uint64{3, identity}, [2]uint64{3, 3}},
		{"dst 0 at 0", 0, [2]uint64{identity, 0}, [2]uint64{0, 0}},
	} {
		saved := props[c.zero]
		props[c.zero] = 0
		for _, k := range minProps {
			for _, skipZero := range []bool{true, false} {
				want := c.noSkip
				if skipZero {
					want = c.skip
				}
				accum := []uint64{identity, identity}
				last, acc := k.run(words, base, index, props, nil, accum, 0, 0, base, base+2, false, skipZero)
				if got := [2]uint64{accum[0], acc}; last != 1 || got != want {
					t.Errorf("min-prop %s, %s, skip %v: stored and returned %v (last %d), want %v (last 1)", k.name, c.name, skipZero, got, last, want)
				}
			}
		}
		props[c.zero] = saved
	}
}

// TestMinPropChunkSkipsUnread: a run whose destination is at 0 is passed over
// without a read of its vectors. The bottom destination z owns the 256
// vectors of one page, which is made inaccessible once the lanes are written,
// between two pages of runs of other destinations; the selected kernel and
// its Go twin walk chunks that put z's run first, interior and last, that
// begin, end or lie inside it (a run straddling a chunk edge), and that end or
// begin at its edge with the words handed over as a slab that ends or begins
// there, gated and ungated, synchronous and in place, among them an in-place
// call whose first run is z's. Lanes name z often, so window reads meet it.
// Each walk is held to the per-lane reference, with the skip, on a readable
// copy of the words.
func TestMinPropChunkSkipsUnread(t *testing.T) {
	const n, z = 40, 10
	page := syscall.Getpagesize()
	per := page / (vec.Lanes * 4) // vectors a page holds
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	guardedWords := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), 3*per*vec.Lanes)

	// Destinations 2…9 share the first page's vectors, z owns the second's,
	// 11…18 share the third's; the others own none.
	index := make([]int, n+1)
	for d := range index {
		switch {
		case d <= z:
			index[d] = max(0, d-2) * per / 8
		case d <= 19:
			index[d] = 2*per + (d-z-1)*per/8
		default:
			index[d] = 3 * per
		}
	}
	rng := rand.New(rand.NewSource(31))
	words := make([]uint32, len(guardedWords))
	for v := 0; v < 3*per; v++ {
		var ids [vec.Lanes]uint32
		for lane := range ids {
			ids[lane] = uint32(rng.Intn(n))
			if rng.Intn(4) == 0 {
				ids[lane] = z
			}
		}
		store(words, v, vsparse.EncodeVector(ids, 1+rng.Intn(vec.Lanes)))
	}
	copy(guardedWords, words)
	if err := syscall.Mprotect(mem[page:2*page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}

	f := newMinFixture(n, 8)
	for d := range f.props {
		if f.props[d] == 0 {
			f.props[d] = uint64(n + d) // z is the one destination at 0
		}
	}
	f.props[z] = 0
	own := owners(index)
	zs, ze := per, 2*per // z's run
	// Each chunk's words are handed over as slabs: one from lo to hi, or two
	// split at a slab edge, the caller storing the first one's last run as
	// the engine's slab walk does and the second call getting the chunk's
	// first destination.
	for _, ch := range []struct{ lo, hi, split int }{
		{zs, 3 * per, 0}, {zs, ze + 7, 0}, {zs, ze, 0}, // first (an in-place call's first run); the whole chunk
		{0, 3 * per, 0}, {per / 2, ze + per/2, 0}, // interior
		{0, ze, 0}, {per / 2, ze, 0}, // last: the chunk and its slab end with it
		{zs + 9, 3 * per, 0}, {0, zs + 9, 0}, {zs + 5, ze - 5, 0}, {ze - 1, ze + 1, 0}, // straddling a chunk edge
		{per / 2, 3 * per, ze}, {per / 2, 3 * per, zs}, // straddling a slab edge: a slab ends with it, or begins with it
	} {
		lo, hi := ch.lo, ch.hi
		first := own[lo]
		call := func(k minPropImpl, front, accum []uint64, inPlace bool) (int, uint64) {
			if ch.split == 0 {
				return k.run(guardedWords[lo*vec.Lanes:hi*vec.Lanes], lo, index, f.props, front, accum, first, first, lo, hi, inPlace, true)
			}
			last, acc := k.run(guardedWords[lo*vec.Lanes:ch.split*vec.Lanes], lo, index, f.props, front, accum, first, first, lo, ch.split, inPlace, true)
			accum[last] = min(accum[last], acc)
			return k.run(guardedWords[ch.split*vec.Lanes:hi*vec.Lanes], ch.split, index, f.props, front, accum, first, own[ch.split], ch.split, hi, inPlace, true)
		}
		for name, front := range frontiers(n, 4) {
			for _, inPlace := range []bool{false, true} {
				rAccum := slices.Clone(f.accum)
				rLast, rAcc := perLaneChunk(words, own, f.props, front, rAccum, lo, hi, inPlace, true)
				for _, k := range minPropImpls() {
					accum := slices.Clone(f.accum)
					last, acc := call(k, front, accum, inPlace)
					if last != rLast || acc != rAcc || !slices.Equal(accum, rAccum) {
						t.Errorf("%s, %s, in place %v, chunk [%d,%d) split at %d: returned (%d, %#x), per-lane (%d, %#x); accum equal %v",
							k.name, name, inPlace, lo, hi, ch.split, last, acc, rLast, rAcc, slices.Equal(accum, rAccum))
					}
				}
			}
		}
	}
}
