package apps

import (
	"slices"

	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/vsparse"
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
	// Arrays returns the edges grouped by source (VSS) and by destination
	// (VSD). Both are shared and read-only.
	Arrays() (out, in *vsparse.Array)
	// RankScale returns the unweighted (1/outdeg) or weighted (1/Σw) scale.
	// The result is shared and read-only.
	RankScale(weighted bool) *RankScale
}

// NewRankScale computes a rank scale from the by-source array of a graph:
// out-degrees come from out.Degree in O(N); the weighted flavour sums each
// group's weights in group order — ascending destination within a source —
// so a vertex's weighted degree is a function of the graph, not of the order
// its edge list happened to arrive in. An unweighted array has weighted
// degree 0 everywhere.
func NewRankScale(out *vsparse.Array, weighted bool) *RankScale {
	s := &RankScale{Inv: make([]float64, out.N)}
	for v := uint32(0); int(v) < out.N; v++ {
		s.set(int(v), degree(out, v, weighted))
	}
	return s
}

// PatchRankScale returns NewRankScale(out, weighted) for a successor version
// whose by-source array out differs from its predecessor's, which prev was
// computed from, only in the groups of the vertices in recompute —
// ascending, no duplicates, and naming every vertex past len(prev.Inv). It
// clones prev.Inv, sets those entries through the per-vertex degree
// NewRankScale reads, and merges them into prev.Dangling in one pass, so the
// result is NewRankScale's bit for bit at O(N) copying and O(|recompute|)
// degree reads. prev is not modified.
func PatchRankScale(prev *RankScale, out *vsparse.Array, weighted bool, recompute []uint32) *RankScale {
	// Clone, then extend: a fresh make would clear N words only to have
	// them overwritten.
	s := &RankScale{Inv: append(slices.Clone(prev.Inv), make([]float64, out.N-len(prev.Inv))...)}
	s.Dangling = make([]uint32, 0, len(prev.Dangling)+len(recompute))
	old := prev.Dangling
	for _, v := range recompute {
		k, found := slices.BinarySearch(old, v)
		s.Dangling = append(s.Dangling, old[:k]...)
		if found {
			k++
		}
		old = old[k:]
		s.Inv[v] = 0
		s.set(int(v), degree(out, v, weighted))
	}
	s.Dangling = append(s.Dangling, old...)
	if len(s.Dangling) == 0 {
		s.Dangling = nil // as NewRankScale leaves it
	}
	return s
}

// degree returns vertex v's out-degree in out: its edge count or, weighted,
// the sum of its group's weights in group order.
func degree(out *vsparse.Array, v uint32, weighted bool) float64 {
	if !weighted {
		return float64(out.Degree(v))
	}
	d := 0.0
	_, ws := out.Group(v)
	for _, w := range ws {
		d += float64(w)
	}
	return d
}

// set records vertex v's out-degree d (plain or weighted) in an Inv entry
// that holds 0, appending v to Dangling if it has none to leave by.
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
		// Canonical (group) summation order takes the grouping, so build it.
		return NewRankScale(vsparse.FromCSR(csr.FromGraph(g, false)), true)
	}
	s := &RankScale{Inv: make([]float64, g.NumVertices)}
	for v, d := range g.OutDegrees() {
		s.set(v, float64(d))
	}
	return s
}
