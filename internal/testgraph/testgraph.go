// Package testgraph is the shared corpus of small fixture graphs: a table of
// named graphs, each declaring the shapes it contains, so that a test can
// range over the table and a reader can see which shape a failure came from.
// Every shape is built by hand-rolled loops with fixed ids — no random
// generator decides whether a shape is present — and the package's own test
// checks each declared property against the edge list.
//
// The corpus carries no expected answers: tests compare an engine against
// the sequential references in internal/apps (which this package must not
// import, so that package's own tests can use it).
package testgraph

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// Props is the set of shapes a corpus graph declares.
type Props uint

const (
	// Hub: some destination's in-edges fill at least four 4-lane vectors.
	Hub Props = 1 << iota
	// LongHubRun: some destination's in-edge run is longer than one
	// 16-vector chunk, so it straddles chunks at ChunkVectors 16.
	LongHubRun
	// SelfLoops: some vertex has an edge to itself.
	SelfLoops
	// DuplicateEdges: some (src, dst) pair occurs twice, apart in the list.
	DuplicateEdges
	// Isolated: some vertex has no edge at all.
	Isolated
	// RootInDegree0: Root has out-edges and no in-edge.
	RootInDegree0
	// StraddlesGroup: a connected group of vertices crosses a multiple-of-4
	// id boundary (and the 64-bit frontier word boundary) while its
	// neighbours in id order stay idle.
	StraddlesGroup
	// Mesh: a 4-neighbour grid — one partly filled vector per destination
	// and a diameter of rows + cols.
	Mesh
	// LateJoin: two long components joined by one edge that comes last in
	// the list, far from the smaller component's minimum label.
	LateJoin
	// Weighted: the graph carries its own non-uniform edge weights.
	Weighted
)

// Has reports whether p includes every shape in q.
func (p Props) Has(q Props) bool { return p&q == q }

// Graph is one corpus entry.
type Graph struct {
	Name  string
	Props Props
	// Root is the source for rooted programs (bfs, sssp).
	Root uint32
	// G is the graph itself, shared and read-only.
	G *graph.Graph
}

// WithWeights returns the graph with edge weights: G itself when it is
// weighted, otherwise a copy with uniform weights drawn from a fixed seed.
func (c Graph) WithWeights() *graph.Graph {
	if c.G.Weighted {
		return c.G
	}
	return gen.AddUniformWeights(c.G, 97)
}

// Corpus returns every fixture graph. The graphs are built once per call;
// callers treat them as read-only.
func Corpus() []Graph {
	return []Graph{
		hub(), longHub(), loopsAndDuplicates(), isolated(), fanOutRoot(),
		straddle(), mesh(), weightedMesh(), lateJoin(), Skewed(),
	}
}

// both adds u→v and v→u.
func both(b *graph.Builder, u, v uint32) { b.AddEdge(u, v).AddEdge(v, u) }

// path adds the bidirectional path ids[0] – ids[1] – … – ids[len-1].
func path(b *graph.Builder, ids ...uint32) {
	for i := 0; i+1 < len(ids); i++ {
		both(b, ids[i], ids[i+1])
	}
}

// span returns lo, lo+1, …, hi-1.
func span(lo, hi uint32) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// hub: vertex 21 gathers from 24 sources on both sides of its own id (six
// vectors), sitting in the middle of a 48-vertex path so that labels reach it
// from far away and leave through it.
func hub() Graph {
	b := graph.NewBuilder(48)
	path(b, span(0, 48)...)
	for v := uint32(47); v > 2; v -= 2 { // highest ids first
		if v != 21 {
			b.AddEdge(v, 21)
		}
	}
	b.AddEdge(21, 46)
	return Graph{Name: "hub", Props: Hub, Root: 40, G: b.MustBuild()}
}

// longHub: vertex 70 gathers from 89 sources (23 vectors, more than one
// 16-vector chunk); the sources hang off a path that starts at vertex 1, so
// the hub's label arrives late and through many lanes at once.
func longHub() Graph {
	b := graph.NewBuilder(100)
	path(b, span(1, 100)...)
	for v := uint32(99); v >= 10; v-- {
		if v < 69 || v > 71 {
			b.AddEdge(v, 70)
		}
	}
	b.AddEdge(70, 0)
	return Graph{Name: "long-hub", Props: Hub | LongHubRun, Root: 1, G: b.MustBuild()}
}

// loopsAndDuplicates: a 24-vertex path with a self-loop on every third
// vertex and every fourth edge repeated at the end of the list.
func loopsAndDuplicates() Graph {
	b := graph.NewBuilder(24)
	path(b, span(0, 24)...)
	for v := uint32(0); v < 24; v += 3 {
		b.AddEdge(v, v)
	}
	for v := uint32(0); v+1 < 24; v += 4 {
		b.AddEdge(v+1, v)
	}
	return Graph{Name: "loops-duplicates", Props: SelfLoops | DuplicateEdges, Root: 23, G: b.MustBuild()}
}

// isolated: a ring over the odd ids of 0…29; every even id has no edge.
func isolated() Graph {
	b := graph.NewBuilder(30)
	for v := uint32(1); v < 30; v += 2 {
		both(b, v, (v+2)%30)
	}
	return Graph{Name: "isolated", Props: Isolated, Root: 1, G: b.MustBuild()}
}

// fanOutRoot: the highest id fans out into a directed chain and nothing
// points back at it.
func fanOutRoot() Graph {
	const n = 33
	b := graph.NewBuilder(n)
	for v := uint32(0); v+2 < n; v++ {
		b.AddEdge(v+1, v) // a chain running down the ids
	}
	for v := uint32(0); v < n-1; v += 7 {
		b.AddEdge(n-1, v)
	}
	return Graph{Name: "fan-out-root", Props: RootInDegree0, Root: n - 1, G: b.MustBuild()}
}

// straddle: two short paths, 2–3–4–5 across the first multiple of four and
// 62–63–64–65–66 across the frontier bitmap's word boundary, in a graph whose
// other vertices are idle.
func straddle() Graph {
	b := graph.NewBuilder(72)
	path(b, 5, 4, 3, 2)
	path(b, 66, 65, 64, 63, 62)
	b.AddEdge(5, 62) // the small label crosses to the far group
	return Graph{Name: "straddle", Props: StraddlesGroup | Isolated, Root: 2, G: b.MustBuild()}
}

// mesh is the 6 × 7 grid.
func mesh() Graph {
	return Graph{Name: "mesh-6x7", Props: Mesh, Root: 41, G: gen.Grid(6, 7, false, 1)}
}

// weightedMesh is a 9 × 9 grid with its own weights in [1, 10): shortest
// paths zigzag, so sssp needs more rounds than the grid's diameter.
func weightedMesh() Graph {
	return Graph{Name: "weighted-mesh-9x9", Props: Mesh | Weighted, Root: 0, G: gen.Grid(9, 9, true, 2)}
}

// Skewed is the corpus's one graph of realistic size: a 256-vertex R-MAT
// core with every shape an early-exit or run-span pull has to survive added
// on top by fixed-id loops, in reverse edge order so grouping cannot lean on
// input order — a hub (vertex 5) whose run spans many vectors and, at small
// ChunkVectors, many chunks; self-loops; duplicate edges apart in the list; a
// root of in-degree 0 that fans out; two vertices with no edge at all; its own
// weights. The engine's pinned Record counters (internal/core) are measured
// on it, so its edge list must not change.
func Skewed() Graph {
	base := gen.RMAT(8, 1800, gen.RMATParams{A: 0.6, B: 0.18, C: 0.17, D: 0.05}, 77)
	n := uint32(base.NumVertices)
	root := n // in-degree 0: only out-edges; n+1 and n+2 get no edge
	b := graph.NewBuilder(int(n) + 3)
	for i := len(base.Edges) - 1; i >= 0; i-- {
		b.AddEdge(base.Edges[i].Src, base.Edges[i].Dst)
	}
	for v := uint32(0); v < n; v += 3 {
		b.AddEdge(v, 5) // 86 more in-edges for a hub, on top of R-MAT's own
	}
	for v := uint32(0); v < 16; v++ {
		b.AddEdge(v, v)      // self-loops
		b.AddEdge(v+1, v)    // duplicates: same pair twice, apart in the list
		b.AddEdge(root, 7*v) // the root fans out, nothing points back
	}
	for v := uint32(0); v < 16; v++ {
		b.AddEdge(v+1, v)
	}
	return Graph{
		Name:  "skewed",
		Props: Hub | LongHubRun | SelfLoops | DuplicateEdges | Isolated | RootInDegree0 | Weighted,
		Root:  root,
		G:     gen.AddUniformWeights(b.MustBuild(), 78),
	}
}

// lateJoin: paths 0…29 and 30…59, joined by one edge between their far ends
// (29 and 59) that comes last in the list: label 0 has to walk the first
// path, cross, and walk the second one backwards.
func lateJoin() Graph {
	b := graph.NewBuilder(60)
	path(b, span(30, 60)...)
	path(b, span(0, 30)...)
	both(b, 29, 59)
	return Graph{Name: "late-join", Props: LateJoin, Root: 30, G: b.MustBuild()}
}
