// Package gen produces the synthetic input graphs used throughout the
// evaluation. Real-world datasets from the paper's Table 1 (cit-Patents,
// dimacs-usa, livejournal, twitter-2010, friendster, uk-2007) are not
// redistributable at multi-billion-edge scale, so each one is substituted by
// a deterministic generator whose degree-distribution character matches the
// original: a 2-D mesh for the road network and R-MAT instances with
// per-graph skew for the scale-free graphs (see DESIGN.md §2).
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// RMATParams are the four R-MAT quadrant probabilities (Chakrabarti et al.,
// SDM '04) — the generator X-Stream ships and the paper's Fig 9b uses.
// They must sum to 1.
type RMATParams struct {
	A, B, C, D float64
}

// Validate checks the probabilities form a distribution.
func (p RMATParams) Validate() error {
	sum := p.A + p.B + p.C + p.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("gen: R-MAT parameters sum to %v, want 1", sum)
	}
	if p.A < 0 || p.B < 0 || p.C < 0 || p.D < 0 {
		return fmt.Errorf("gen: negative R-MAT parameter in %+v", p)
	}
	return nil
}

// DefaultRMAT is the standard Graph500-style parameterization.
var DefaultRMAT = RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// RMAT generates a directed R-MAT graph with 2^scale vertices and numEdges
// edges, deterministically from seed. Self-loops are removed and duplicate
// edges are kept (as in the reference generator); the result is sorted by
// source.
func RMAT(scale int, numEdges int, p RMATParams, seed int64) *graph.Graph {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, numEdges)
	for len(edges) < numEdges {
		src, dst := rmatPick(scale, p, rng)
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	g := &graph.Graph{NumVertices: n, Edges: edges}
	g.SortBySource()
	return g
}

// rmatPick draws one edge, a quadrant per bit, without a branch per bit:
// src's bit is set when r ≥ A+B (quadrants C and D), and dst's when r lies
// in [A, A+B) or past A+B+C (quadrants B and D), which is the parity of the
// three comparisons. A+B+C is summed as (A+B)+C, the float a chain of
// tests r < A, r < A+B, r < A+B+C forms, so every r picks that chain's
// quadrant and the generated graphs stay as pinned.
func rmatPick(scale int, p RMATParams, rng *rand.Rand) (src, dst uint32) {
	ab := p.A + p.B
	abc := ab + p.C
	for bit := 0; bit < scale; bit++ {
		r := rng.Float64()
		s := r >= ab
		src |= b2u(s) << bit
		dst |= b2u((r >= p.A) != s != (r >= abc)) << bit
	}
	return src, dst
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Grid generates a 2-D mesh of rows × cols vertices with bidirectional edges
// between 4-neighbors — the analog of a road network such as dimacs-usa
// (low, near-constant degree, huge diameter). Weighted variants get uniform
// random weights in [1, 10).
func Grid(rows, cols int, weighted bool, seed int64) *graph.Graph {
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	if weighted {
		b.SetWeighted()
	}
	id := func(r, c int) uint32 { return uint32(r*cols + c) }
	addBoth := func(u, v uint32) {
		if weighted {
			w := 1 + rng.Float32()*9
			b.AddWeightedEdge(u, v, w)
			b.AddWeightedEdge(v, u, w)
		} else {
			b.AddEdge(u, v)
			b.AddEdge(v, u)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				addBoth(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addBoth(id(r, c), id(r+1, c))
			}
		}
	}
	g := b.MustBuild()
	g.SortBySource()
	return g
}

// ErdosRenyi generates a uniform random directed graph with n vertices and
// numEdges edges (self-loops excluded, duplicates possible).
func ErdosRenyi(n, numEdges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, numEdges)
	for len(edges) < numEdges {
		src := uint32(rng.Intn(n))
		dst := uint32(rng.Intn(n))
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	g := &graph.Graph{NumVertices: n, Edges: edges}
	g.SortBySource()
	return g
}

// AddUniformWeights returns a copy of g with uniform random weights in
// [1, 10), for the weighted applications (SSSP, Collaborative-Filtering-like
// kernels).
func AddUniformWeights(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	out := g.Clone()
	out.Weighted = true
	for i := range out.Edges {
		out.Edges[i].Weight = 1 + rng.Float32()*9
	}
	return out
}
