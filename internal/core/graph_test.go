package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// analogs1 are the T×1 and D×1 analogs, each generated once per test binary
// for every test that reads it. No test may modify one.
var analogs1 = map[gen.Dataset]func() *graph.Graph{
	gen.Twitter:   sync.OnceValue(func() *graph.Graph { return gen.Generate(gen.Twitter, 1) }),
	gen.DimacsUSA: sync.OnceValue(func() *graph.Graph { return gen.Generate(gen.DimacsUSA, 1) }),
}

// maxBytesPerEdge bounds a version's footprint per edge: 12.6 MB over the
// 1.44 M edges of T×4, where CSR and CSC beside the arrays made it 24.4 MB.
const maxBytesPerEdge = 12_600_000 / 1_440_000.0

// TestMemoryBytes: a version is its two Vector-Sparse arrays — a T×1 version
// holds at most maxBytesPerEdge bytes per edge, and still does with the
// census's out-degrees built — and the CSC edgePullCS reads is counted only
// once built: by a runner that will take that kernel, before any run, and
// never by one that will not. It is the CSC a rebuild would count-sort, byte
// for byte.
func TestMemoryBytes(t *testing.T) {
	g := analogs1[gen.Twitter]()
	cg := BuildGraph(g)
	arrays := cg.VSS.MemoryBytes() + cg.VSD.MemoryBytes()
	perEdge := func(b int64) float64 { return float64(b) / float64(cg.Edges) }
	if got := cg.MemoryBytes(); got != arrays || perEdge(got) > maxBytesPerEdge {
		t.Fatalf("T×1 version: MemoryBytes %d (%.2f B/edge), arrays %d; want equal and ≤ %.2f B/edge",
			got, perEdge(got), arrays, maxBytesPerEdge)
	}
	NewRunner(cg, Options{Workers: 1}).Close()
	if got := cg.MemoryBytes(); got != arrays {
		t.Fatalf("a vectorized runner grew the version to %d bytes from %d", got, arrays)
	}
	cg.outDegrees()
	if got := cg.MemoryBytes(); got != arrays+4*int64(cg.N) || perEdge(got) > maxBytesPerEdge {
		t.Fatalf("T×1 version with out-degrees: MemoryBytes %d (%.2f B/edge), want %d and ≤ %.2f B/edge",
			got, perEdge(got), arrays+4*int64(cg.N), maxBytesPerEdge)
	}
	cg = BuildGraph(g)
	NewRunner(cg, Options{Workers: 1, Scalar: true}).Close()
	csc := cg.csc.Load()
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
