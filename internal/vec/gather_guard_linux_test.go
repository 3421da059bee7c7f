//go:build linux

package vec_test

import (
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

// TestRankSumChunkNeverReadsPastLen walks chunks whose words, weights, index,
// accum and contrib each end on the last byte before a guard page, plain and
// weighted: the chunk's last vector is the array's last, one vector per
// destination and the destinations the top ids, so index is read to its last
// word and the interior stores reach accum[n−2], the last word of the n−1
// the kernel is given (the last destination is returned, never stored); the
// lanes carry the top ids too, so the gather reads to within a few words of
// contrib's end.
func TestRankSumChunkNeverReadsPastLen(t *testing.T) {
	const n = 64
	words64 := func(k int) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&guarded(t, k*8)[0])), k) }
	f := newRankFixture(n, 4)
	contrib := unsafe.Slice((*float64)(unsafe.Pointer(&guarded(t, n*8)[0])), n)
	copy(contrib, f.contrib)
	f.contrib = contrib
	accum := words64(n - 1)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		lanes := vectors * vec.Lanes
		words := words64(lanes)
		weights := unsafe.Slice((*float32)(unsafe.Pointer(&guarded(t, lanes*4)[0])), lanes)
		index := unsafe.Slice((*int)(unsafe.Pointer(&guarded(t, (n+1)*8)[0])), n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint64
			for lane := range ids {
				ids[lane] = uint64((7*v + 3*lane + n - 8) % n)
			}
			valid := 1 + v%vec.Lanes
			vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(ids, valid))
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
// ends below the last destination, so no read can reach accum[n−1]).
func TestMinPropChunkNeverReadsPastLen(t *testing.T) {
	const n = 70 // two frontier words, the second partly used
	words64 := func(k int) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&guarded(t, k*8)[0])), k) }
	f := newMinFixture(n, 4)
	props := words64(n)
	copy(props, f.props)
	f.props = props
	accum := words64(n)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		words := words64(vectors * vec.Lanes)
		index := unsafe.Slice((*int)(unsafe.Pointer(&guarded(t, (n+1)*8)[0])), n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint64
			for lane := range ids {
				ids[lane] = uint64((7*v + 3*lane + n - 8) % n) // the top ids: the last frontier word
			}
			vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(ids, 1+v%vec.Lanes))
		}
		for dst := 0; dst <= n; dst++ {
			index[dst] = max(0, dst-(n-vectors))
		}
		for name, ff := range frontiers(n, 3) {
			front := ff
			if ff != nil {
				front = words64(len(ff))
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
// word.
func TestMinSrcChunkNeverReadsPastLen(t *testing.T) {
	const n = 70 // two bitset words, the second partly used
	words64 := func(k int) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(&guarded(t, k*8)[0])), k) }
	f := newSrcFixture(n, 4)
	for name, c := range f.convs {
		f.convs[name] = words64(len(c))
		copy(f.convs[name], c)
	}
	accum := words64(n)
	f.kernelAccum = func() []uint64 {
		copy(accum, f.accum)
		return accum
	}
	for _, vectors := range []int{1, 2, 5, 16} {
		words := words64(vectors * vec.Lanes)
		index := unsafe.Slice((*int)(unsafe.Pointer(&guarded(t, (n+1)*8)[0])), n+1)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint64
			for lane := range ids {
				ids[lane] = uint64((7*v + 3*lane + n - 8) % n)
			}
			vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(ids, 1+v%vec.Lanes))
		}
		for dst := 0; dst <= n; dst++ {
			index[dst] = max(0, dst-(n-vectors))
		}
		for name, ff := range frontiers(n, 3) {
			if ff == nil {
				continue
			}
			front := words64(len(ff))
			copy(front, ff)
			for lo := 0; lo < vectors; lo++ {
				if err := f.chunkAgrees(words, index, front, lo, vectors); err != nil {
					t.Errorf("%d vectors, %s, chunk [%d,%d): %v", vectors, name, lo, vectors, err)
				}
			}
		}
	}
}
