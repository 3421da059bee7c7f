// Package csr implements the two-level Compressed-Sparse format of the
// paper's Fig 2: a vertex index holding each top-level vertex's starting
// position in a flat edge array. Grouping by source gives CSR; grouping by
// destination gives CSC. All baselines run on this format. Grazelle builds
// it only on the way to Vector-Sparse (package vsparse), which is derived
// from it and holds the same groups in the same order; a served graph keeps
// no matrix beside its two Vector-Sparse arrays, except the CSC the scalar
// pull kernel decodes back from one of them.
package csr

import (
	"fmt"
	"iter"

	"repro/internal/graph"
)

// Matrix is a Compressed-Sparse edge structure. For a CSR instance the
// top-level vertices are sources and Neigh holds destinations; for CSC it is
// the reverse.
type Matrix struct {
	// N is the number of top-level vertices; Index has length N+1.
	N int
	// Index maps a top-level vertex to its first edge in Neigh; the edges of
	// vertex v occupy Neigh[Index[v]:Index[v+1]].
	Index []uint64
	// Neigh holds the non-top-level endpoint of every edge.
	Neigh []uint32
	// Weights holds per-edge weights parallel to Neigh, or nil when the
	// source graph was unweighted.
	Weights []float32
	// ByDest records whether this is a CSC (true) or CSR (false) instance.
	ByDest bool
}

// NumEdges returns the number of edges stored.
func (m *Matrix) NumEdges() int { return len(m.Neigh) }

// MemoryBytes returns the heap footprint of the matrix's backing arrays.
func (m *Matrix) MemoryBytes() int64 {
	return int64(len(m.Index))*8 + int64(len(m.Neigh))*4 + int64(len(m.Weights))*4
}

// Degree returns the number of edges grouped under top-level vertex v.
func (m *Matrix) Degree(v uint32) int {
	return int(m.Index[v+1] - m.Index[v])
}

// Edges returns the neighbor slice of top-level vertex v.
func (m *Matrix) Edges(v uint32) []uint32 {
	return m.Neigh[m.Index[v]:m.Index[v+1]]
}

// EdgeWeights returns the weight slice of top-level vertex v; nil when the
// matrix is unweighted.
func (m *Matrix) EdgeWeights(v uint32) []float32 {
	if m.Weights == nil {
		return nil
	}
	return m.Weights[m.Index[v]:m.Index[v+1]]
}

// FromGraph builds a Compressed-Sparse matrix grouped by source (CSR,
// byDest=false) or destination (CSC, byDest=true). Within each group,
// neighbors appear in ascending order. The input graph is not modified.
func FromGraph(g *graph.Graph, byDest bool) *Matrix {
	n := g.NumVertices
	m := &Matrix{N: n, ByDest: byDest}
	m.Index = make([]uint64, n+1)

	key := func(e graph.Edge) uint32 {
		if byDest {
			return e.Dst
		}
		return e.Src
	}
	val := func(e graph.Edge) uint32 {
		if byDest {
			return e.Src
		}
		return e.Dst
	}

	// Counting sort by top-level vertex: stable, linear, and independent of
	// the input edge order.
	for _, e := range g.Edges {
		m.Index[key(e)+1]++
	}
	for v := 0; v < n; v++ {
		m.Index[v+1] += m.Index[v]
	}
	m.Neigh = make([]uint32, len(g.Edges))
	if g.Weighted {
		m.Weights = make([]float32, len(g.Edges))
	}
	cursor := make([]uint64, n)
	copy(cursor, m.Index[:n])
	for _, e := range g.Edges {
		k := key(e)
		pos := cursor[k]
		cursor[k]++
		m.Neigh[pos] = val(e)
		if g.Weighted {
			m.Weights[pos] = e.Weight
		}
	}
	// Ascending neighbor order within each group (insertion sort per group;
	// groups are typically short, and heavy groups are already nearly sorted
	// when the input came from a sorted edge list).
	for v := 0; v < n; v++ {
		lo, hi := m.Index[v], m.Index[v+1]
		sortGroup(m.Neigh[lo:hi], weightsOrNil(m.Weights, lo, hi))
	}
	return m
}

func weightsOrNil(w []float32, lo, hi uint64) []float32 {
	if w == nil {
		return nil
	}
	return w[lo:hi]
}

func sortGroup(neigh []uint32, w []float32) {
	for i := 1; i < len(neigh); i++ {
		nv := neigh[i]
		var wv float32
		if w != nil {
			wv = w[i]
		}
		j := i - 1
		for j >= 0 && neigh[j] > nv {
			neigh[j+1] = neigh[j]
			if w != nil {
				w[j+1] = w[j]
			}
			j--
		}
		neigh[j+1] = nv
		if w != nil {
			w[j+1] = wv
		}
	}
}

// WriteFile persists the edges the matrix encodes as a graph file
// (graph.ReadFile reads it back), streamed out of the matrix in its order:
// by (src, dst) for CSR, by (dst, src) for CSC. FromGraph is a stable scatter
// followed by a stable per-group sort, so FromGraph of either grouping over
// the file's edges rebuilds the matrices of the graph m came from byte for
// byte, duplicate edges and their weights included.
func (m *Matrix) WriteFile(path string) error {
	return graph.WriteEdgesFile(path, m.N, m.NumEdges(), m.Weights != nil, m.all())
}

// all yields every edge in (src, dst) orientation, in the matrix's order.
func (m *Matrix) all() iter.Seq[graph.Edge] {
	return func(yield func(graph.Edge) bool) {
		for v := uint32(0); int(v) < m.N; v++ {
			for i := m.Index[v]; i < m.Index[v+1]; i++ {
				e := graph.Edge{Src: v, Dst: m.Neigh[i]}
				if m.ByDest {
					e.Src, e.Dst = e.Dst, e.Src
				}
				if m.Weights != nil {
					e.Weight = m.Weights[i]
				}
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Validate checks structural invariants: a monotone index covering Neigh
// exactly, and in-range neighbor ids.
func (m *Matrix) Validate() error {
	if len(m.Index) != m.N+1 {
		return fmt.Errorf("csr: index length %d, want %d", len(m.Index), m.N+1)
	}
	if m.Index[0] != 0 {
		return fmt.Errorf("csr: index[0] = %d, want 0", m.Index[0])
	}
	for v := 0; v < m.N; v++ {
		if m.Index[v+1] < m.Index[v] {
			return fmt.Errorf("csr: index not monotone at %d", v)
		}
	}
	if m.Index[m.N] != uint64(len(m.Neigh)) {
		return fmt.Errorf("csr: index[N] = %d, want %d", m.Index[m.N], len(m.Neigh))
	}
	for i, nb := range m.Neigh {
		if int(nb) >= m.N {
			return fmt.Errorf("csr: neighbor %d at %d out of range", nb, i)
		}
	}
	if m.Weights != nil && len(m.Weights) != len(m.Neigh) {
		return fmt.Errorf("csr: %d weights for %d edges", len(m.Weights), len(m.Neigh))
	}
	return nil
}
