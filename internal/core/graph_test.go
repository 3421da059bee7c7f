package core

import (
	"reflect"
	"testing"

	"repro/internal/csr"
	"repro/internal/gen"
)

// TestMemoryBytes: a version is its two Vector-Sparse arrays — a T×4 version
// holds at most 12.6 MB, where it held 24.4 with CSR and CSC beside them,
// and still does with the census's out-degrees built — and the CSC
// edgePullCS reads is counted only once built: by a runner that will take
// that kernel, before any run, and never by one that will not. It is the CSC
// a rebuild would count-sort, byte for byte.
func TestMemoryBytes(t *testing.T) {
	g := gen.Generate(gen.Twitter, 4)
	cg := BuildGraph(g)
	arrays := cg.VSS.MemoryBytes() + cg.VSD.MemoryBytes()
	if got := cg.MemoryBytes(); got != arrays || got > 12_600_000 {
		t.Fatalf("T×4 version: MemoryBytes %d, arrays %d; want equal and ≤ 12.6 MB", got, arrays)
	}
	NewRunner(cg, Options{Workers: 1}).Close()
	if got := cg.MemoryBytes(); got != arrays {
		t.Fatalf("a vectorized runner grew the version to %d bytes from %d", got, arrays)
	}
	cg.outDegrees()
	if got := cg.MemoryBytes(); got != arrays+4*int64(cg.N) || got > 12_600_000 {
		t.Fatalf("T×4 version with out-degrees: MemoryBytes %d, want %d and ≤ 12.6 MB", got, arrays+4*int64(cg.N))
	}
	cg = BuildGraph(g)
	NewRunner(cg, Options{Workers: 1, Scalar: true}).Close()
	csc := cg.csc.p.Load()
	if csc == nil {
		t.Fatal("a scalar runner left edgePullCS's CSC unbuilt")
	}
	if grew := cg.MemoryBytes() - arrays; grew != csc.MemoryBytes() {
		t.Fatalf("MemoryBytes grew by %d with the CSC built, which holds %d", grew, csc.MemoryBytes())
	}
	if !reflect.DeepEqual(csc, csr.FromGraph(g, true)) {
		t.Fatal("the CSC decoded from VSD differs from a rebuild's")
	}
}
