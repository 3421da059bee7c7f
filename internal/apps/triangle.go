package apps

import (
	"slices"
	"sort"

	"repro/internal/csr"
	"repro/internal/frontier"
)

// TriangleCount counts, per vertex, the triangles of the graph's undirected
// simple closure (edge direction ignored, parallel edges and self-loops
// dropped). The constructor prebuilds sorted unique adjacency lists; all the
// counting work happens in the Vertex phase, where Apply intersects the
// vertex's neighbor list with each neighbor's — the node-iterator algorithm.
// Apply is a pure function of the vertex id, so the program is
// bit-deterministic at any worker count by construction. The Edge phase
// carries no information (Message is the additive identity); the program
// completes in exactly one iteration (the registry entry caps MaxIters at 1).
type TriangleCount struct {
	adj [][]uint32 // sorted unique undirected neighbors, self-loops dropped
}

// NewTriangleCount creates a triangle-counting program for the graph whose
// edges out groups by source (CSR) and in by destination (CSC): a vertex's
// undirected neighbors are the union of its two groups.
func NewTriangleCount(out, in *csr.Matrix) *TriangleCount {
	adj := make([][]uint32, out.N)
	for v := range adj {
		n := slices.Concat(out.Edges(uint32(v)), in.Edges(uint32(v)))
		slices.Sort(n)
		adj[v] = slices.DeleteFunc(slices.Compact(n), func(u uint32) bool { return u == uint32(v) })
	}
	return &TriangleCount{adj: adj}
}

// Name implements Program.
func (t *TriangleCount) Name() string { return "TriangleCount" }

// Identity implements Program: the additive identity.
func (t *TriangleCount) Identity() uint64 { return 0 }

// Combine implements Program: addition (trivially order-free).
func (t *TriangleCount) Combine(a, b uint64) uint64 { return a + b }

// Message implements Program: the Edge phase carries nothing — counting is
// Vertex-phase work over the prebuilt adjacency.
func (t *TriangleCount) Message(_ uint64, _ uint32, _ float32) uint64 { return 0 }

// Apply implements Program: local triangle count of v. Each neighbor u
// contributes |N(v) ∩ N(u)| common neighbors; every triangle through v is
// found via both of its other corners, so the sum is twice v's count.
func (t *TriangleCount) Apply(_, _ uint64, v uint32) (uint64, bool) {
	nv := t.adj[v]
	var twice uint64
	for _, u := range nv {
		twice += intersectCount(nv, t.adj[u])
	}
	return twice / 2, false
}

// intersectCount returns |a ∩ b| for sorted unique lists. Small-vs-large
// intersections gallop with binary search so hub-adjacent vertices do not
// pay the hub's full degree; similar sizes use a linear merge.
func intersectCount(a, b []uint32) uint64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	var n uint64
	if len(b) >= 32*len(a) {
		for _, x := range a {
			i := sort.Search(len(b), func(i int) bool { return b[i] >= x })
			if i < len(b) && b[i] == x {
				n++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// InitProps implements Program.
func (t *TriangleCount) InitProps(props []uint64) {
	for i := range props {
		props[i] = 0
	}
}

// PreIteration implements Program.
func (t *TriangleCount) PreIteration([]uint64) {}

// InitFrontier implements Program: every vertex counts.
func (t *TriangleCount) InitFrontier(f *frontier.Dense) { f.Fill() }

// InitConverged implements Program.
func (t *TriangleCount) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program.
func (t *TriangleCount) UsesFrontier() bool { return false }

// TracksConverged implements Program.
func (t *TriangleCount) TracksConverged() bool { return false }

// SkipEqualWrites implements Program.
func (t *TriangleCount) SkipEqualWrites() bool { return false }

// Weighted implements Program.
func (t *TriangleCount) Weighted() bool { return false }

// Triangles returns the global triangle count from per-vertex counts (each
// triangle is counted at each of its three corners).
func Triangles(props []uint64) uint64 {
	var sum uint64
	for _, c := range props {
		sum += c
	}
	return sum / 3
}
