// Package graph provides the in-memory edge-list representation shared by
// every format, engine, and baseline in this repository. It deliberately
// stays close to the inputs the Grazelle artifact consumes: a vertex count,
// a flat list of directed edges, and optional per-edge weights.
package graph

import (
	"errors"
	"fmt"
)

// Edge is a single directed edge. Weight is meaningful only when the owning
// Graph is weighted; unweighted graphs carry zero weights.
type Edge struct {
	Src, Dst uint32
	Weight   float32
}

// Graph is a directed graph stored as an edge list. The zero value is an
// empty graph with no vertices. Graphs are immutable once built; use Builder
// to construct one incrementally.
type Graph struct {
	// NumVertices is the number of vertices; valid ids are [0, NumVertices).
	NumVertices int
	// Edges holds every directed edge. Order is unspecified unless the graph
	// was produced by SortBySource.
	Edges []Edge
	// Weighted reports whether edge weights are meaningful.
	Weighted bool
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// MaxVertices bounds a graph's vertex count, so every vertex id is below
// 2^31: a Vector-Sparse lane carries a 31-bit source id beside its valid bit,
// and the pull kernels' dword-index gathers read a lane word as a signed
// index (internal/vsparse).
const MaxVertices = 1 << 31

// Validate checks that the vertex count is within [0, MaxVertices] and that
// every endpoint is within range. It reads no more than the edge list, so a
// vertex count past the bound is refused before anything is sized by it.
func (g *Graph) Validate() error {
	if g.NumVertices < 0 || g.NumVertices > MaxVertices {
		return fmt.Errorf("graph: vertex count %d outside [0, %d]", g.NumVertices, MaxVertices)
	}
	n := uint64(g.NumVertices)
	for i, e := range g.Edges {
		if uint64(e.Src) >= n || uint64(e.Dst) >= n {
			return fmt.Errorf("graph: edge %d (%d -> %d) out of range for %d vertices", i, e.Src, e.Dst, g.NumVertices)
		}
	}
	return nil
}

// OutDegrees returns the out-degree of every vertex.
func (g *Graph) OutDegrees() []int {
	deg := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// InDegrees returns the in-degree of every vertex.
func (g *Graph) InDegrees() []int {
	deg := make([]int, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// MaxDegree returns the maximum of the supplied degree slice, or zero when
// it is empty.
func MaxDegree(deg []int) int {
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average out-degree (edges per vertex).
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices == 0 {
		return 0
	}
	return float64(len(g.Edges)) / float64(g.NumVertices)
}

// SortBySource orders edges by (src, dst), stably: edges with equal
// endpoints keep their input order. This is the grouping a push engine (and
// CSR construction) wants. It is a two-pass counting sort, by dst into one
// scratch edge list and then stably by src back into Edges, linear in edges
// plus vertices. Every endpoint must be below NumVertices: one that is not
// panics, naming the edge, before anything is moved.
func (g *Graph) SortBySource() {
	n := g.NumVertices
	bySrc, byDst := make([]int, n+1), make([]int, n+1)
	for i, e := range g.Edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			panic(fmt.Sprintf("graph: SortBySource: edge %d (%d -> %d) out of range for %d vertices", i, e.Src, e.Dst, n))
		}
		bySrc[e.Src+1]++
		byDst[e.Dst+1]++
	}
	for v := 1; v <= n; v++ {
		bySrc[v] += bySrc[v-1]
		byDst[v] += byDst[v-1]
	}
	tmp := make([]Edge, len(g.Edges))
	for _, e := range g.Edges {
		tmp[byDst[e.Dst]] = e
		byDst[e.Dst]++
	}
	for _, e := range tmp {
		g.Edges[bySrc[e.Src]] = e
		bySrc[e.Src]++
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := &Graph{NumVertices: g.NumVertices, Weighted: g.Weighted}
	out.Edges = make([]Edge, len(g.Edges))
	copy(out.Edges, g.Edges)
	return out
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	numVertices int
	edges       []Edge
	weighted    bool
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{numVertices: n}
}

// SetWeighted marks the graph under construction as weighted.
func (b *Builder) SetWeighted() *Builder {
	b.weighted = true
	return b
}

// AddEdge appends a directed edge with zero weight.
func (b *Builder) AddEdge(src, dst uint32) *Builder {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst})
	return b
}

// AddWeightedEdge appends a directed edge with the given weight and marks
// the graph weighted.
func (b *Builder) AddWeightedEdge(src, dst uint32, w float32) *Builder {
	b.weighted = true
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
	return b
}

// ErrVertexOutOfRange is returned by Build when an edge endpoint exceeds the
// declared vertex count.
var ErrVertexOutOfRange = errors.New("graph: vertex id out of range")

// Build validates the accumulated edges and returns the graph. The builder
// must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	g := &Graph{NumVertices: b.numVertices, Edges: b.edges, Weighted: b.weighted}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVertexOutOfRange, err)
	}
	return g, nil
}

// MustBuild is Build for statically-known-good inputs; it panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
