// Package core implements Grazelle (§5 of the paper): the hybrid graph
// processing framework embodying the scheduler-aware parallel-loop interface
// (§3) and the Vector-Sparse edge format (§4). It provides the Edge-Pull
// engine in its four evaluated variants (traditional-atomic,
// traditional-nonatomic, scheduler-aware scalar, scheduler-aware
// vectorized), the Edge-Push engine, the Vertex phase, hybrid engine
// selection by frontier density, and simulated NUMA partitioning.
package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/vsparse"
)

// Graph holds every preprocessed representation the engines consume. As in
// the paper (§5), two edge lists are kept: one grouped by source (VSS, used
// by Edge-Push) and one grouped by destination (VSD, used by Edge-Pull),
// with Compressed-Sparse views retained for the scalar kernels. It is the
// whole of a served graph version: no edge list is kept beside it, and what
// needs one rebuilds it from CSR (csr.Matrix.ToGraph, WriteFile).
type Graph struct {
	// N is the vertex count.
	N int
	// CSR groups edges by source; CSC groups by destination (Fig 2).
	CSR, CSC *csr.Matrix
	// VSS and VSD are the Vector-Sparse encodings of CSR and CSC (Fig 4).
	VSS, VSD *vsparse.Array
	// Weighted reports whether edge weights are present.
	Weighted bool
	// Edges is the directed edge count.
	Edges int

	// scales are the version's rank scales, plain and weighted
	// (apps.RankScale: what pr, ppr and wpr read of the graph), each built on
	// its first use — so no query pays for them per run and a version nobody
	// ranks never pays at all.
	scales [2]lazyScale
}

// lazyScale is one rank scale behind its once; the pointer is atomic so
// MemoryBytes can observe it without racing the build.
type lazyScale struct {
	once sync.Once
	p    atomic.Pointer[apps.RankScale]
}

// MemoryBytes returns the heap footprint of every preprocessed
// representation the engines hold resident — the store's unit of memory
// accounting. The lazily-built rank scales are counted only once built.
func (g *Graph) MemoryBytes() int64 {
	total := g.CSR.MemoryBytes() + g.CSC.MemoryBytes() +
		g.VSS.MemoryBytes() + g.VSD.MemoryBytes()
	for i := range g.scales {
		if s := g.scales[i].p.Load(); s != nil {
			total += s.MemoryBytes()
		}
	}
	return total
}

// NumVertices implements apps.Layouts.
func (g *Graph) NumVertices() int { return g.N }

// Matrices implements apps.Layouts.
func (g *Graph) Matrices() (out, in *csr.Matrix) { return g.CSR, g.CSC }

// RankScale implements apps.Layouts: the version's 1/outdeg (or 1/Σw) array
// and dangling list, computed from CSR on the first call — O(N), plus one
// pass over CSR.Weights for the weighted one — and shared by every program
// built on this version afterwards.
func (g *Graph) RankScale(weighted bool) *apps.RankScale {
	l := &g.scales[0]
	if weighted {
		l = &g.scales[1]
	}
	l.once.Do(func() { l.p.Store(apps.NewRankScale(g.CSR, weighted)) })
	return l.p.Load()
}

// BuildGraph preprocesses an edge-list graph into every engine
// representation.
func BuildGraph(g *graph.Graph) *Graph {
	csrM := csr.FromGraph(g, false)
	cscM := csr.FromGraph(g, true)
	return &Graph{
		N:        g.NumVertices,
		CSR:      csrM,
		CSC:      cscM,
		VSS:      vsparse.FromCSR(csrM),
		VSD:      vsparse.FromCSR(cscM),
		Weighted: g.Weighted,
		Edges:    g.NumEdges(),
	}
}

// PatchGraph returns BuildGraph(graph.ApplyEdgeOps(src, ops)), byte for
// byte, for any edge list src with BuildGraph(src) == prev — computed from
// prev alone, so a mutated version costs its delta plus one streaming copy
// of each array instead of two counting sorts and two encodes over every
// edge. Per direction the ops reduce to one edit per (src, dst) pair; groups
// no edit names are copied run by run (csr.Matrix.Patch,
// vsparse.Array.Patch) and the rest are merged and encoded again through the
// encoder FromCSR uses. Because the output is the rebuild's output, every
// engine's determinism carries over with nothing to re-prove. prev is not
// modified and shares no memory with the result.
func PatchGraph(prev *Graph, ops []graph.EdgeOp) *Graph {
	edits := graph.ReduceEdgeOps(ops, prev.Weighted) // ascending (src, dst)
	n := prev.N
	for _, op := range edits {
		if !op.Delete {
			n = max(n, int(op.Src)+1, int(op.Dst)+1)
		}
	}
	csrM, srcTouched := prev.CSR.Patch(n, edits)
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Dst != edits[j].Dst {
			return edits[i].Dst < edits[j].Dst
		}
		return edits[i].Src < edits[j].Src
	})
	cscM, dstTouched := prev.CSC.Patch(n, edits)
	return &Graph{
		N:        n,
		CSR:      csrM,
		CSC:      cscM,
		VSS:      prev.VSS.Patch(csrM, srcTouched),
		VSD:      prev.VSD.Patch(cscM, dstTouched),
		Weighted: prev.Weighted,
		Edges:    csrM.NumEdges(),
	}
}

// PatchShare is the fraction of prev's edge slots, over both directions,
// that lie in groups ops would make PatchGraph re-derive rather than copy,
// counting each op as one more slot: what a caller weighs against a rebuild.
func PatchShare(prev *Graph, ops []graph.EdgeOp) float64 {
	if prev.Edges == 0 {
		return 1
	}
	slots := 2 * len(ops)
	seen := make([]uint64, 2*((prev.N+63)/64))
	in := seen[len(seen)/2:]
	for _, op := range ops {
		if s := op.Src; int(s) < prev.N && seen[s>>6]&(1<<(s&63)) == 0 {
			seen[s>>6] |= 1 << (s & 63)
			slots += prev.CSR.Degree(s)
		}
		if d := op.Dst; int(d) < prev.N && in[d>>6]&(1<<(d&63)) == 0 {
			in[d>>6] |= 1 << (d & 63)
			slots += prev.CSC.Degree(d)
		}
	}
	return float64(slots) / float64(2*prev.Edges)
}
