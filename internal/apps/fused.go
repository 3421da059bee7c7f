package apps

// FusedKind identifies a program's aggregation pattern so engines can run a
// fused, fully-inlined inner loop for it. This mirrors the original
// Grazelle, whose Edge-phase kernels are hand-specialized per application
// (2 KLOC of x86 assembly). Engines take a Program interface value, on which
// a per-edge Message/Combine is an indirect call, so they recognize the
// paper's aggregation operators by this kind and inline them. Semantics are
// identical to Combine(acc, Message(srcVal, src, w)) — a property the tests
// enforce — and FusedNone falls back to the program's own calls.
//
// FusedMinProp and FusedMinSrc also fix Apply: core's Vertex phase runs them
// on its select body, with the kind's Apply (documented below) inlined,
// instead of calling the program's through its apply body, so a program that
// declares either kind must have exactly that Apply and Identity ^uint64(0).
// The tests check both for every registered program. A FusedRankSum program
// that is a RankStepper likewise has its dense Vertex rounds run on core's
// rank body, which calls the RankStep and never the program's Apply.
type FusedKind int

const (
	// FusedNone: no specialization; engines call Message/Combine per edge.
	FusedNone FusedKind = iota
	// FusedRankSum: float64 acc += props[src] · Scale[src] (· w when the
	// program is weighted) — PageRank in all three flavours (pr, wpr, ppr).
	// Identity must be +0, which core's rank body resets accum to. When the
	// program is a RankStepper, Apply(old, agg, v) must be
	// (float64 bits of RankStep().Rank(agg, v), true).
	FusedRankSum
	// FusedMinProp: uint64 acc = min(acc, props[src]) — Connected
	// Components. Identity must be ^uint64(0): core's chunk walk
	// (vec.MinPropChunk) gives a dead lane that value, and its Vertex
	// phase (selectBody) resets accum to it. Apply(old, agg) is (min(old, agg), agg < old),
	// so a label of 0 never moves, and the chunk walk skips a destination
	// at 0.
	FusedMinProp
	// FusedMinSrc: uint64 acc = min(acc, src) — BFS parent selection.
	// Identity must be NoParent, which core's Vertex phase (selectBody)
	// resets accum to.
	// Apply adopts agg exactly once: (agg, true) when old == NoParent and
	// agg != NoParent, (old, false) otherwise.
	FusedMinSrc
	// FusedMinPropPlusW: float64 acc = min(acc, props[src] + w) — SSSP.
	FusedMinPropPlusW
)

// Fused is the optional interface programs implement to advertise a fused
// kernel. FusedScale returns the per-source scale vector for FusedRankSum
// (nil otherwise).
type Fused interface {
	FusedKind() FusedKind
	FusedScale() []float64
}

// KindOf resolves a program's fused kind and scale vector, defaulting to
// FusedNone.
func KindOf(p Program) (FusedKind, []float64) {
	if f, ok := p.(Fused); ok {
		return f.FusedKind(), f.FusedScale()
	}
	return FusedNone, nil
}

// MonotoneMin is the optional interface by which a program declares the
// monotone-min trait: its answer is the least fixpoint of a monotone map, so
// any fair schedule of its edge reads reaches the same bits and an engine
// may let a source's fresher aggregate be read before the iteration barrier
// (core's in-place pull). A program that declares it promises, for every
// lane value its runs can hold:
//
//   - Combine is an idempotent, commutative, associative minimum in some
//     total order, with Identity as its top;
//   - Apply(old, agg, v) == (Combine(old, agg), Combine(old, agg) != old),
//     and so Apply(old, Identity, v) == (old, false);
//   - Message is monotone in srcVal under that order: a smaller source value
//     never sends a larger message along the same edge.
//
// BFS is the counter-example that keeps this a declaration and not an
// inference from FusedKind: its Combine is a minimum, but its parent is the
// minimum live source of the level that first reaches the vertex — a
// function of the schedule, not a fixpoint. The registry conformance suite
// property-checks every program that declares the trait.
type MonotoneMin interface {
	MonotoneMin() bool
}

// IsMonotoneMin reports whether p declares the monotone-min trait.
func IsMonotoneMin(p Program) bool {
	m, ok := p.(MonotoneMin)
	return ok && m.MonotoneMin()
}

// MonotoneMin implements the trait: labels only fall, and a smaller source
// label is a smaller message.
func (c *ConnComp) MonotoneMin() bool { return true }

// MonotoneMin implements the trait: distances only fall, and dist + w is
// monotone in dist for any weight.
func (s *SSSP) MonotoneMin() bool { return true }

// FusedKind implements Fused: the flavours differ in Message's weight and in
// the Vertex phase, so the Edge phase is one rank-sum kernel for all three.
func (p *PageRank) FusedKind() FusedKind { return FusedRankSum }

// FusedScale implements Fused.
func (p *PageRank) FusedScale() []float64 { return p.scale.Inv }

// FusedKind implements Fused.
func (c *ConnComp) FusedKind() FusedKind { return FusedMinProp }

// FusedScale implements Fused.
func (c *ConnComp) FusedScale() []float64 { return nil }

// FusedKind implements Fused.
func (b *BFS) FusedKind() FusedKind { return FusedMinSrc }

// FusedScale implements Fused.
func (b *BFS) FusedScale() []float64 { return nil }

// FusedKind implements Fused.
func (s *SSSP) FusedKind() FusedKind { return FusedMinPropPlusW }

// FusedScale implements Fused.
func (s *SSSP) FusedScale() []float64 { return nil }
