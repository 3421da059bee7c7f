package apps

import (
	"repro/internal/frontier"
	"repro/internal/graph"
)

// PersonalizedPageRank is PageRank personalized to a root vertex: all
// teleport mass — the (1-d) restart and the dangling-vertex mass — returns
// to the root instead of spreading uniformly, so ranks measure proximity to
// the root and the rank sum stays exactly 1.0. The access pattern is
// identical to PageRank (FusedRankSum: acc += rank[src]·invOutDeg[src]), so
// the program rides the same fused vectorized kernel and the same
// chunk-ordered float merge that makes PageRank bit-deterministic at any
// worker count.
type PersonalizedPageRank struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// Root receives all teleport and dangling mass.
	Root uint32

	scale    *RankScale // PageRank's: 1/outdeg and the dangling list
	dangling float64
}

// NewPersonalizedPageRank creates a personalized PageRank program rooted at
// root with damping 0.85 from an edge list (O(E)); the registry uses
// PersonalizedPageRankOn.
func NewPersonalizedPageRank(g *graph.Graph, root uint32) *PersonalizedPageRank {
	return PersonalizedPageRankOn(EdgeListRankScale(g, false), root)
}

// PersonalizedPageRankOn creates a personalized PageRank program rooted at
// root with damping 0.85 on an unweighted rank scale.
func PersonalizedPageRankOn(scale *RankScale, root uint32) *PersonalizedPageRank {
	return &PersonalizedPageRank{Damping: 0.85, Root: root, scale: scale}
}

// Name implements Program.
func (p *PersonalizedPageRank) Name() string { return "PersonalizedPageRank" }

// Identity implements Program.
func (p *PersonalizedPageRank) Identity() uint64 { return f64(0) }

// Combine implements Program: float64 addition.
func (p *PersonalizedPageRank) Combine(a, b uint64) uint64 { return f64(asF64(a) + asF64(b)) }

// Message implements Program: rank(src) / outdeg(src).
func (p *PersonalizedPageRank) Message(srcVal uint64, src uint32, _ float32) uint64 {
	return f64(asF64(srcVal) * p.scale.Inv[src])
}

// Apply implements Program: rank = d·sum, plus the restart and dangling
// mass at the root.
func (p *PersonalizedPageRank) Apply(_, agg uint64, v uint32) (uint64, bool) {
	rank := p.Damping * asF64(agg)
	if v == p.Root {
		rank += (1 - p.Damping) + float64(p.Damping*p.dangling) // rounded before the add: no FMA
	}
	return f64(rank), true
}

// InitProps implements Program: all mass starts at the root.
func (p *PersonalizedPageRank) InitProps(props []uint64) {
	zero := f64(0)
	for i := range props {
		props[i] = zero
	}
	props[p.Root] = f64(1)
	p.dangling = 0
	p.PreIteration(props)
}

// PreIteration implements Program: sum the rank mass of dangling vertices.
func (p *PersonalizedPageRank) PreIteration(props []uint64) {
	p.dangling = p.scale.danglingMass(props)
}

// InitFrontier implements Program.
func (p *PersonalizedPageRank) InitFrontier(f *frontier.Dense) { f.Fill() }

// InitConverged implements Program.
func (p *PersonalizedPageRank) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program.
func (p *PersonalizedPageRank) UsesFrontier() bool { return false }

// TracksConverged implements Program.
func (p *PersonalizedPageRank) TracksConverged() bool { return false }

// SkipEqualWrites implements Program.
func (p *PersonalizedPageRank) SkipEqualWrites() bool { return false }

// Weighted implements Program.
func (p *PersonalizedPageRank) Weighted() bool { return false }
