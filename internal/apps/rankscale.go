package apps

import (
	"repro/internal/csr"
	"repro/internal/graph"
)

// RankScale is what a rank-sum program (pr, ppr, wpr) reads of one graph
// version and never writes: the per-source scale of its messages and the
// vertices whose rank mass has no out-edge to leave by. It depends on the
// graph alone, so one value serves every run on a version; programs built on
// the same version share its arrays.
type RankScale struct {
	// Inv[v] is 1/outdeg(v) — 1/Σw over v's out-edges in the weighted
	// flavour — and 0 for a dangling vertex.
	Inv []float64
	// Dangling lists the vertices with Inv[v] == 0, ascending: the order
	// PreIteration sums their mass in, which is part of the result's bits.
	Dangling []uint32
}

// Layouts is what Entry.New reads of one graph version: its vertex count,
// its edges grouped by source and by destination, and its rank scales, which
// cost nothing unless a program asks for one. core.Graph implements it,
// memoizing the scales beside its layouts, so a query pays nothing per run.
type Layouts interface {
	// NumVertices returns the vertex count.
	NumVertices() int
	// Matrices returns the edges grouped by source (CSR) and by destination
	// (CSC). Both are shared and read-only.
	Matrices() (out, in *csr.Matrix)
	// RankScale returns the unweighted (1/outdeg) or weighted (1/Σw) scale.
	// The result is shared and read-only.
	RankScale(weighted bool) *RankScale
}

// NewRankScale computes a rank scale from the by-source matrix of a graph:
// out-degrees come from m.Index in O(N); the weighted flavour sums m.Weights
// in CSR order — ascending destination within a source — so a vertex's
// weighted degree is a function of the graph, not of the order its edge list
// happened to arrive in. An unweighted matrix has weighted degree 0
// everywhere.
func NewRankScale(m *csr.Matrix, weighted bool) *RankScale {
	s := &RankScale{Inv: make([]float64, m.N)}
	for v := 0; v < m.N; v++ {
		d := float64(m.Index[v+1] - m.Index[v])
		if weighted {
			d = 0
			for _, w := range m.EdgeWeights(uint32(v)) {
				d += float64(w)
			}
		}
		s.set(v, d)
	}
	return s
}

// set records vertex v's out-degree d (plain or weighted).
func (s *RankScale) set(v int, d float64) {
	if d > 0 {
		s.Inv[v] = 1 / d
	}
	if s.Inv[v] == 0 {
		s.Dangling = append(s.Dangling, uint32(v))
	}
}

// MemoryBytes returns the heap footprint of the scale's arrays.
func (s *RankScale) MemoryBytes() int64 {
	return int64(len(s.Inv))*8 + int64(len(s.Dangling))*4
}

// danglingMass sums the rank held by dangling vertices, in ascending vertex
// order.
func (s *RankScale) danglingMass(props []uint64) float64 {
	sum := 0.0
	for _, v := range s.Dangling {
		sum += asF64(props[v])
	}
	return sum
}

// EdgeListRankScale computes a rank scale from an edge list, an O(E) pass
// on every call: for a caller that holds no core.Graph (the harness's
// baseline figures, the sequential interpreter, tests). The values equal
// core.Graph's for the same graph.
func EdgeListRankScale(g *graph.Graph, weighted bool) *RankScale {
	if weighted {
		// Canonical (CSR) summation order takes the grouping, so build it.
		return NewRankScale(csr.FromGraph(g, false), true)
	}
	s := &RankScale{Inv: make([]float64, g.NumVertices)}
	for v, d := range g.OutDegrees() {
		s.set(v, float64(d))
	}
	return s
}
