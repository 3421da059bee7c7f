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

// TestRankSumRunNeverReadsPastLen runs spans whose words and weights both end
// on the last byte before a guard page.
func TestRankSumRunNeverReadsPastLen(t *testing.T) {
	const n = 64
	f := newRankFixture(n, 4)
	for _, vectors := range []int{1, 2, 5, 16} {
		lanes := vectors * vec.Lanes
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&guarded(t, lanes*8)[0])), lanes)
		weights := unsafe.Slice((*float32)(unsafe.Pointer(&guarded(t, lanes*4)[0])), lanes)
		for v := 0; v < vectors; v++ {
			var ids [vec.Lanes]uint64
			for lane := range ids {
				ids[lane] = uint64((7*v + 3*lane) % n)
			}
			valid := 1 + v%vec.Lanes
			vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(9, ids, valid))
			for lane := 0; lane < valid; lane++ {
				weights[v*vec.Lanes+lane] = float32(1 + lane)
			}
		}
		for _, ws := range [][]float32{nil, weights} {
			if kernel, twin, perEdge, ok := f.agree(words, ws); !ok {
				t.Errorf("%d vectors: %s kernel %#x, Go twin %#x, per-edge product %#x", vectors, vec.Kernel(), kernel, twin, perEdge)
			}
		}
	}
}
