// Package apps defines the vertex programs of the paper's evaluation
// (PageRank, Connected Components in standard and write-intense forms,
// Breadth-First Search) plus the extensions §6 sketches (Single-Source
// Shortest Paths, which "behaves the same way as Connected Components" with
// weights, and a Collaborative-Filtering-like weighted PageRank kernel).
//
// Programs follow the Gather-Apply-Scatter-style contract Grazelle exposes:
// a commutative, associative Combine over 64-bit property lanes, a Message
// produced per edge, and an Apply folding the aggregate into the vertex
// property. Engines take a Program interface value and run the per-edge
// calls of the paper's aggregation operators inline by their FusedKind.
package apps

import (
	"math"

	"repro/internal/frontier"
	"repro/internal/graph"
)

// Program is the application contract every engine executes. Property
// values are opaque 64-bit lanes (float64 bits for PageRank/SSSP, ids for
// CC/BFS), matching the 64-bit vector elements the paper's kernels operate
// on.
type Program interface {
	// Identity is the aggregation identity: Combine(Identity, x) == x.
	Identity() uint64
	// Combine merges two aggregate lanes; it must be commutative and
	// associative (§2's requirement on compute()).
	Combine(a, b uint64) uint64
	// Message produces the lane a source vertex sends along one edge.
	Message(srcVal uint64, src uint32, w float32) uint64
	// Apply folds the iteration's aggregate into the previous property and
	// reports whether the vertex changed (frontier admission).
	Apply(old, agg uint64, v uint32) (uint64, bool)
	// InitProps resets program state and writes initial property lanes.
	InitProps(props []uint64)
	// PreIteration runs between iterations, before the Edge phase — the
	// hook Grazelle's global variables serve (e.g. PageRank's dangling-mass
	// sum).
	PreIteration(props []uint64)
	// InitFrontier seeds the first iteration's frontier.
	InitFrontier(f *frontier.Dense)
	// InitConverged seeds the converged set (vertices ignoring in-bound
	// messages from the start).
	InitConverged(c *frontier.Dense)
	// UsesFrontier reports whether source vertices outside the frontier are
	// skipped. PageRank answers false (§2: PageRank cannot use the
	// frontier).
	UsesFrontier() bool
	// TracksConverged reports whether changed vertices permanently leave
	// the computation (BFS marks vertices converged upon visitation).
	TracksConverged() bool
	// SkipEqualWrites permits engines to elide a shared write when the
	// combined value equals the current one (the minimization optimization
	// the standard Connected Components enjoys; its write-intense variant
	// of Fig 8a returns false).
	SkipEqualWrites() bool
	// Weighted reports whether Message consumes edge weights.
	Weighted() bool
}

// f64 converts a float64 to its property-lane representation.
func f64(x float64) uint64 { return math.Float64bits(x) }

// asF64 converts a property lane back to float64.
func asF64(x uint64) float64 { return math.Float64frombits(x) }

// PageRank is the rank-sum program behind pr, wpr and ppr: one access
// pattern (FusedRankSum: acc += rank[src]·scale[src]) with three flavours
// that differ only in Message, Apply and InitProps. Property lanes hold each
// vertex's current rank as float64 bits; Message divides by the source's
// out-degree. A per-iteration global (the paper's "global variables"
// feature) redistributes the rank mass of dangling vertices so the rank sum
// stays 1.0 — the correctness check the artifact prints.
//
//   - pr (PageRankOn): teleport and dangling mass spread uniformly.
//   - wpr (WeightedRankOn): the Collaborative-Filtering-like kernel §6
//     describes — edge weights fold into each message, rank·w/weightedOutDeg
//     ("the use of edge weights adds additional transfers but does not change
//     the access pattern").
//   - ppr (PersonalizedPageRankOn): all teleport mass — the (1-d) restart and
//     the dangling mass — returns to Root, so ranks measure proximity to it.
type PageRank struct {
	// Damping is the damping factor d (default 0.85).
	Damping float64
	// N is the vertex count, set by the constructors.
	N int
	// Root receives all teleport and dangling mass in the personalized
	// flavour; the others ignore it.
	Root uint32

	scale        *RankScale // 1/outdeg (1/Σw) and the dangling list, shared per graph version
	step         RankStep   // this iteration's Apply arithmetic, set by PreIteration
	weighted     bool       // wpr: messages carry the edge weight
	personalized bool       // ppr: teleport mass returns to Root
}

// RankStep is one iteration of PageRank's Vertex-phase arithmetic, with the
// terms that are the same for every vertex — (1-d)/N, dangling/N and the
// root's restart mass — computed once by PreIteration. Apply is Rank, and
// core's rank-sum Vertex body calls Rank directly, so the two are one body.
// Its four words stay in registers across that body's loop.
type RankStep struct {
	damping, teleport float64
	// mass is dangling/N (pr, wpr) or, when root >= 0, the restart and
	// dangling mass the root takes (ppr).
	mass float64
	// root is ppr's root, -1 for pr and wpr.
	root int64
}

// Rank returns vertex v's new rank for aggregate agg: (1-d)/N + d·(agg +
// dangling/N), or, when personalized, d·agg plus the root's restart and
// dangling mass, (1-d) + d·dangling, at the root. Every product is rounded by
// an explicit float64 conversion before it is added: without one a compiler
// may fuse the two (GOAMD64=v3, arm64) and two builds of one tree disagree in
// the last bit.
func (s RankStep) Rank(agg uint64, v uint32) float64 {
	if s.root >= 0 {
		rank := float64(s.damping * asF64(agg))
		if int64(v) == s.root {
			rank += s.mass
		}
		return rank
	}
	return s.teleport + float64(s.damping*(asF64(agg)+s.mass))
}

// RankStepper is the optional interface by which a FusedRankSum program
// hands the engine its Apply as a RankStep (see FusedRankSum).
type RankStepper interface {
	RankStep() RankStep
}

// RankStepOf resolves a program's rank step, reporting false for a program
// that has none.
func RankStepOf(p Program) (RankStep, bool) {
	if s, ok := p.(RankStepper); ok {
		return s.RankStep(), true
	}
	return RankStep{}, false
}

// NewPageRank creates a PageRank program with damping 0.85 from an edge
// list, computing the rank scale on the spot (O(E)); the registry builds the
// same program on a version's memoized scale with PageRankOn.
func NewPageRank(g *graph.Graph) *PageRank {
	return PageRankOn(EdgeListRankScale(g, false))
}

// PageRankOn creates a PageRank program with damping 0.85 on an unweighted
// rank scale.
func PageRankOn(scale *RankScale) *PageRank {
	return &PageRank{Damping: 0.85, N: len(scale.Inv), scale: scale}
}

// NewWeightedRank creates the weighted-rank program for weighted graph g
// from its edge list (O(E), plus the grouping the canonical summation order
// needs); the registry uses WeightedRankOn.
func NewWeightedRank(g *graph.Graph) *PageRank {
	return WeightedRankOn(EdgeListRankScale(g, true))
}

// WeightedRankOn creates the weighted-rank program on a weighted rank scale.
func WeightedRankOn(scale *RankScale) *PageRank {
	p := PageRankOn(scale)
	p.weighted = true
	return p
}

// NewPersonalizedPageRank creates a personalized PageRank program rooted at
// root with damping 0.85 from an edge list (O(E)); the registry uses
// PersonalizedPageRankOn.
func NewPersonalizedPageRank(g *graph.Graph, root uint32) *PageRank {
	return PersonalizedPageRankOn(EdgeListRankScale(g, false), root)
}

// PersonalizedPageRankOn creates a personalized PageRank program rooted at
// root with damping 0.85 on an unweighted rank scale.
func PersonalizedPageRankOn(scale *RankScale, root uint32) *PageRank {
	p := PageRankOn(scale)
	p.Root, p.personalized = root, true
	return p
}

// Identity implements Program: the additive identity 0.0.
func (p *PageRank) Identity() uint64 { return f64(0) }

// Combine implements Program: float64 addition.
func (p *PageRank) Combine(a, b uint64) uint64 { return f64(asF64(a) + asF64(b)) }

// Message implements Program: rank(src) / outdeg(src), or
// rank(src)/weightedOutDeg(src) · w when weighted. The scale multiplies
// first so the weighted result is bit-identical to the engines' fused
// FusedRankSum kernel.
func (p *PageRank) Message(srcVal uint64, src uint32, w float32) uint64 {
	if p.weighted {
		return f64(asF64(srcVal) * p.scale.Inv[src] * float64(w))
	}
	return f64(asF64(srcVal) * p.scale.Inv[src])
}

// Apply implements Program: the rank the step of the last PreIteration (which
// InitProps runs) gives. Every vertex reports a change.
func (p *PageRank) Apply(_, agg uint64, v uint32) (uint64, bool) {
	return f64(p.step.Rank(agg, v)), true
}

// InitProps implements Program: uniform initial ranks 1/N, or, when
// personalized, all mass at the root.
func (p *PageRank) InitProps(props []uint64) {
	if p.personalized {
		clear(props) // f64(0) is the zero lane
		props[p.Root] = f64(1)
	} else {
		init := f64(1 / float64(p.N))
		for i := range props {
			props[i] = init
		}
	}
	p.PreIteration(props)
}

// PreIteration implements Program: sum the rank mass of dangling vertices
// and compute the iteration's RankStep from it.
func (p *PageRank) PreIteration(props []uint64) {
	dangling := p.scale.danglingMass(props)
	d := p.Damping
	if p.personalized {
		p.step = RankStep{damping: d, mass: (1 - d) + float64(d*dangling), root: int64(p.Root)}
		return
	}
	p.step = RankStep{damping: d, teleport: (1 - d) / float64(p.N), mass: dangling / float64(p.N), root: -1}
}

// RankStep implements RankStepper: the step the last PreIteration computed.
func (p *PageRank) RankStep() RankStep { return p.step }

// InitFrontier implements Program; PageRank processes every vertex.
func (p *PageRank) InitFrontier(f *frontier.Dense) { f.Fill() }

// InitConverged implements Program; nothing starts converged.
func (p *PageRank) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program.
func (p *PageRank) UsesFrontier() bool { return false }

// TracksConverged implements Program.
func (p *PageRank) TracksConverged() bool { return false }

// SkipEqualWrites implements Program; summation writes every iteration.
func (p *PageRank) SkipEqualWrites() bool { return false }

// Weighted implements Program.
func (p *PageRank) Weighted() bool { return p.weighted }

// RankSum returns the total rank mass in props — the artifact's "PageRank
// Sum" correctness check, which should be very close to 1.0.
func RankSum(props []uint64) float64 {
	sum := 0.0
	for _, v := range props {
		sum += asF64(v)
	}
	return sum
}

// Ranks converts property lanes to a float64 rank vector.
func Ranks(props []uint64) []float64 {
	out := make([]float64, len(props))
	for i, v := range props {
		out[i] = asF64(v)
	}
	return out
}

// ConnComp is Connected Components by min-label propagation along directed
// edges (on a symmetric graph this computes true connected components).
// WriteIntense selects the Fig 8a variant that performs a shared write per
// edge even when the label is unchanged.
type ConnComp struct {
	// WriteIntense disables the skip-equal-writes optimization.
	WriteIntense bool
}

// NewConnComp creates the standard Connected Components program.
func NewConnComp() *ConnComp { return &ConnComp{} }

// NewConnCompWriteIntense creates the write-intense variant of Fig 8a.
func NewConnCompWriteIntense() *ConnComp { return &ConnComp{WriteIntense: true} }

// Identity implements Program: the maximal label.
func (c *ConnComp) Identity() uint64 { return ^uint64(0) }

// Combine implements Program: minimization.
func (c *ConnComp) Combine(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// Message implements Program: propagate the source's label.
func (c *ConnComp) Message(srcVal uint64, _ uint32, _ float32) uint64 { return srcVal }

// Apply implements Program: keep the smaller label.
func (c *ConnComp) Apply(old, agg uint64, _ uint32) (uint64, bool) {
	if agg < old {
		return agg, true
	}
	return old, false
}

// InitProps implements Program: every vertex starts in its own component.
func (c *ConnComp) InitProps(props []uint64) {
	for i := range props {
		props[i] = uint64(i)
	}
}

// PreIteration implements Program.
func (c *ConnComp) PreIteration([]uint64) {}

// InitFrontier implements Program: all vertices are initially active.
func (c *ConnComp) InitFrontier(f *frontier.Dense) { f.Fill() }

// InitConverged implements Program.
func (c *ConnComp) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program.
func (c *ConnComp) UsesFrontier() bool { return true }

// TracksConverged implements Program.
func (c *ConnComp) TracksConverged() bool { return false }

// SkipEqualWrites implements Program.
func (c *ConnComp) SkipEqualWrites() bool { return !c.WriteIntense }

// Weighted implements Program.
func (c *ConnComp) Weighted() bool { return false }

// Components converts property lanes to component ids.
func Components(props []uint64) []uint32 {
	out := make([]uint32, len(props))
	for i, v := range props {
		out[i] = uint32(v)
	}
	return out
}

// NoParent is the BFS property lane of an unvisited vertex.
const NoParent = ^uint64(0)

// BFS is Breadth-First Search producing a parent array: each visited vertex
// records the minimum-id frontier predecessor of the round that reached it
// (determinism; the paper accepts the first candidate). Vertices are marked
// converged immediately upon visitation and ignore further messages.
type BFS struct {
	// Root is the search origin.
	Root uint32
}

// NewBFS creates a BFS program from the given root.
func NewBFS(root uint32) *BFS { return &BFS{Root: root} }

// Identity implements Program.
func (b *BFS) Identity() uint64 { return NoParent }

// Combine implements Program: smallest candidate parent wins.
func (b *BFS) Combine(x, y uint64) uint64 {
	if y < x {
		return y
	}
	return x
}

// Message implements Program: offer the source as parent.
func (b *BFS) Message(_ uint64, src uint32, _ float32) uint64 { return uint64(src) }

// Apply implements Program: adopt a parent exactly once.
func (b *BFS) Apply(old, agg uint64, _ uint32) (uint64, bool) {
	if old == NoParent && agg != NoParent {
		return agg, true
	}
	return old, false
}

// InitProps implements Program: only the root starts visited (its own
// parent, the artifact's convention).
func (b *BFS) InitProps(props []uint64) {
	for i := range props {
		props[i] = NoParent
	}
	props[b.Root] = uint64(b.Root)
}

// PreIteration implements Program.
func (b *BFS) PreIteration([]uint64) {}

// InitFrontier implements Program: just the root.
func (b *BFS) InitFrontier(f *frontier.Dense) { f.Add(b.Root) }

// InitConverged implements Program: the root ignores in-bound messages.
func (b *BFS) InitConverged(c *frontier.Dense) { c.Add(b.Root) }

// UsesFrontier implements Program.
func (b *BFS) UsesFrontier() bool { return true }

// TracksConverged implements Program.
func (b *BFS) TracksConverged() bool { return true }

// SkipEqualWrites implements Program: one write per vertex ever, so the
// optimization is moot (§3: BFS "would not benefit at all").
func (b *BFS) SkipEqualWrites() bool { return true }

// Weighted implements Program.
func (b *BFS) Weighted() bool { return false }

// Inf is the SSSP lane for an unreached vertex.
var Inf = f64(math.Inf(1))

// SSSP is synchronous Bellman-Ford Single-Source Shortest Paths over
// non-negative float32 edge weights. §6 describes it as Connected
// Components' twin: minimization aggregation, frontier initialized to a
// single vertex.
type SSSP struct {
	// Root is the source vertex.
	Root uint32
}

// NewSSSP creates an SSSP program from the given root.
func NewSSSP(root uint32) *SSSP { return &SSSP{Root: root} }

// Identity implements Program: +Inf distance.
func (s *SSSP) Identity() uint64 { return Inf }

// Combine implements Program: minimum distance.
func (s *SSSP) Combine(a, b uint64) uint64 {
	if asF64(b) < asF64(a) {
		return b
	}
	return a
}

// Message implements Program: dist(src) + w.
func (s *SSSP) Message(srcVal uint64, _ uint32, w float32) uint64 {
	return f64(asF64(srcVal) + float64(w))
}

// Apply implements Program: relax.
func (s *SSSP) Apply(old, agg uint64, _ uint32) (uint64, bool) {
	if asF64(agg) < asF64(old) {
		return agg, true
	}
	return old, false
}

// InitProps implements Program.
func (s *SSSP) InitProps(props []uint64) {
	for i := range props {
		props[i] = Inf
	}
	props[s.Root] = f64(0)
}

// PreIteration implements Program.
func (s *SSSP) PreIteration([]uint64) {}

// InitFrontier implements Program: just the root.
func (s *SSSP) InitFrontier(f *frontier.Dense) { f.Add(s.Root) }

// InitConverged implements Program.
func (s *SSSP) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program.
func (s *SSSP) UsesFrontier() bool { return true }

// TracksConverged implements Program: distances may improve repeatedly.
func (s *SSSP) TracksConverged() bool { return false }

// SkipEqualWrites implements Program.
func (s *SSSP) SkipEqualWrites() bool { return true }

// Weighted implements Program.
func (s *SSSP) Weighted() bool { return true }

// Distances converts property lanes to float64 distances.
func Distances(props []uint64) []float64 {
	out := make([]float64, len(props))
	for i, v := range props {
		out[i] = asF64(v)
	}
	return out
}
