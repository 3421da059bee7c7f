// Package core implements Grazelle (§5 of the paper): the hybrid graph
// processing framework embodying the scheduler-aware parallel-loop interface
// (§3) and the Vector-Sparse edge format (§4). It provides the Edge-Pull
// engine in its four evaluated variants (traditional-atomic,
// traditional-nonatomic, scheduler-aware scalar, scheduler-aware
// vectorized), the Edge-Push engine, the Vertex phase, hybrid engine
// selection by frontier density, and simulated NUMA partitioning.
package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/vsparse"
)

// Graph is one graph version as the engines consume it: as in the paper
// (§5), two edge lists, one grouped by source (VSS, used by Edge-Push) and
// one grouped by destination (VSD, used by Edge-Pull), each in Vector-Sparse
// form. They are the whole of a served version: no edge list or
// Compressed-Sparse matrix is kept beside them. A reader of a vertex's edges
// takes vsparse.Array.Degree and Group; what needs an edge list streams one
// out of an array (vsparse.Array.WriteFile for a snapshot, ToGraph for the
// scalar runner's CSC).
type Graph struct {
	// N is the vertex count.
	N int
	// VSS and VSD are the Vector-Sparse encodings of the edges grouped by
	// source and by destination (Figs 2 and 4).
	VSS, VSD *vsparse.Array
	// Weighted reports whether edge weights are present.
	Weighted bool
	// Edges is the directed edge count.
	Edges int

	// Each derived structure below is built under its once and published
	// through its pointer, which MemoryBytes loads without racing the build.
	// PatchGraph publishes a successor's copy of each per-vertex memo
	// (scales, outDeg) its predecessor had built.

	// scales are the version's rank scales, plain and weighted
	// (apps.RankScale: what pr, ppr and wpr read of the graph), each built on
	// its first use or inherited — so no query pays for them per run and a
	// lineage nobody ranks never pays at all.
	scales     [2]atomic.Pointer[apps.RankScale]
	scalesOnce [2]sync.Once
	// csc is VSD decoded to Compressed-Sparse, built on its first use: only
	// edgePullCS, the scalar Compressed-Sparse pull of Fig 10, walks edge
	// positions rather than vectors.
	csc     atomic.Pointer[csr.Matrix]
	cscOnce sync.Once
	// outDeg is VSS.Degree of every vertex, built on its first use or
	// inherited: the census sums it over a frontier every iteration, where
	// Degree's read of each vertex's last vector would miss cache once per
	// vertex.
	outDeg     atomic.Pointer[[]uint32]
	outDegOnce sync.Once
}

// MemoryBytes returns the heap footprint of every preprocessed
// representation the engines hold resident — the store's unit of memory
// accounting. The lazily-built memos are counted once built; inherited ones
// from the version's birth.
func (g *Graph) MemoryBytes() int64 {
	total := g.VSS.MemoryBytes() + g.VSD.MemoryBytes()
	for i := range g.scales {
		if s := g.scales[i].Load(); s != nil {
			total += s.MemoryBytes()
		}
	}
	if m := g.csc.Load(); m != nil {
		total += m.MemoryBytes()
	}
	if d := g.outDeg.Load(); d != nil {
		total += int64(len(*d)) * 4
	}
	return total
}

// NumVertices implements apps.Layouts.
func (g *Graph) NumVertices() int { return g.N }

// Arrays implements apps.Layouts.
func (g *Graph) Arrays() (out, in *vsparse.Array) { return g.VSS, g.VSD }

// RankScale implements apps.Layouts: the version's 1/outdeg (or 1/Σw) array
// and dangling list, computed from VSS on the first call — O(N), plus one
// pass over VSS's weights for the weighted one — and shared by every program
// built on this version afterwards.
func (g *Graph) RankScale(weighted bool) *apps.RankScale {
	i := 0
	if weighted {
		i = 1
	}
	g.scalesOnce[i].Do(func() { g.scales[i].Store(apps.NewRankScale(g.VSS, weighted)) })
	return g.scales[i].Load()
}

// outDegrees returns every vertex's out-degree, computed from VSS on the
// first call and shared afterwards. A group holds fewer than 2^32 edges.
func (g *Graph) outDegrees() []uint32 {
	g.outDegOnce.Do(func() {
		d := make([]uint32, g.N)
		for v := range d {
			d[v] = uint32(g.VSS.Degree(uint32(v)))
		}
		g.outDeg.Store(&d)
	})
	return *g.outDeg.Load()
}

// pullCS returns the version's edges grouped by destination in
// Compressed-Sparse form (CSC), decoded from VSD on the first call and shared
// afterwards. VSD's edges stream out in CSC order, so the stable sort leaves
// them in place.
func (g *Graph) pullCS() *csr.Matrix {
	g.cscOnce.Do(func() { g.csc.Store(csr.FromGraph(g.VSD.ToGraph(), true)) })
	return g.csc.Load()
}

// BuildGraph preprocesses an edge-list graph into every engine
// representation. The Compressed-Sparse matrices the encoder reads are
// transient. The two directions share nothing and each build is
// deterministic, so VSD is built on a goroutine of its own beside VSS.
func BuildGraph(g *graph.Graph) *Graph {
	vsd := make(chan *vsparse.Array, 1) // never blocks its sender, even if the caller panics
	go func() { vsd <- vsparse.FromCSR(csr.FromGraph(g, true)) }()
	vss := vsparse.FromCSR(csr.FromGraph(g, false))
	return &Graph{
		N:        g.NumVertices,
		VSS:      vss,
		VSD:      <-vsd,
		Weighted: g.Weighted,
		Edges:    g.NumEdges(),
	}
}

// PatchGraph returns BuildGraph(graph.ApplyEdgeOps(src, ops)), byte for
// byte, for any edge list src with BuildGraph(src) == prev — computed from
// prev alone, so a mutated version costs its delta, the slabs it touches
// and two Index arrays instead of two counting sorts and two encodes over
// every edge. Per direction the ops reduce to one edit per (src, dst) pair;
// a slab no edit names is prev's, shared by slice header, and in the others
// untouched groups are copied run by run and the rest merged and encoded
// again through the encoder FromCSR uses (vsparse.Array.Patch). Because the
// output is the rebuild's output, every engine's determinism carries over
// with nothing to re-prove. prev is not modified; the result shares every
// untouched slab with it, which no one writes after its array is built.
//
// The result also inherits each per-vertex memo prev has built (the rank
// scales and outDegrees): a copy of prev's with the entries of the edited
// sources and of the vertices past prev.N computed again by the function
// that built them, which reads only groups — so the memo is the one the
// result would build, published before it is returned. A memo prev has not
// built stays lazy. Besides the two Index arrays, those copies are the only
// work that grows with N rather than with the batch.
func PatchGraph(prev *Graph, ops []graph.EdgeOp) *Graph {
	edits := graph.ReduceEdgeOps(ops, prev.Weighted) // ascending (src, dst)
	n := prev.N
	for _, op := range edits {
		if !op.Delete {
			n = max(n, int(op.Src)+1, int(op.Dst)+1)
		}
	}
	// The vertices whose out-groups may differ from prev's, ascending.
	var recompute []uint32
	for _, op := range edits {
		if int(op.Src) < prev.N && (len(recompute) == 0 || recompute[len(recompute)-1] != op.Src) {
			recompute = append(recompute, op.Src)
		}
	}
	for v := prev.N; v < n; v++ {
		recompute = append(recompute, uint32(v))
	}
	vss := prev.VSS.Patch(n, edits)
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Dst != edits[j].Dst {
			return edits[i].Dst < edits[j].Dst
		}
		return edits[i].Src < edits[j].Src
	})
	g := &Graph{
		N:        n,
		VSS:      vss,
		VSD:      prev.VSD.Patch(n, edits),
		Weighted: prev.Weighted,
		Edges:    vss.ValidEdges,
	}
	for i := range prev.scales {
		if s := prev.scales[i].Load(); s != nil {
			g.scalesOnce[i].Do(func() { g.scales[i].Store(apps.PatchRankScale(s, vss, i == 1, recompute)) })
		}
	}
	if d := prev.outDeg.Load(); d != nil {
		g.outDegOnce.Do(func() {
			deg := append(slices.Clone(*d), make([]uint32, n-prev.N)...)
			for _, v := range recompute {
				deg[v] = uint32(vss.Degree(v))
			}
			g.outDeg.Store(&deg)
		})
	}
	return g
}
