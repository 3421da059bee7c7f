package apps

import (
	"repro/internal/frontier"
)

// LabelProp is synchronous label propagation for community detection, made
// deterministic by min-hash adoption. Classic label propagation adopts "the
// most frequent / a random neighbor label", both of which are tie-breaky and
// schedule-dependent; here every message packs (hash(label, salt) << 32 |
// label) into the lane and aggregation is uint64 minimization — each vertex
// adopts the label of a pseudo-randomly distinguished in-neighbor, with the
// label's low bits breaking hash ties. Min is order-free, so the result is
// bit-identical at any worker count, and the per-iteration salt (advanced in
// PreIteration, the paper's "global variables" hook) re-randomizes the
// choice each round so propagation does not collapse to min-label CC.
//
// Property lanes hold the plain label (a vertex id) between iterations; the
// packed key exists only inside the Edge phase. The program is frontier-blind
// and runs a fixed iteration count (the iters parameter).
type LabelProp struct {
	round uint64
	salt  uint64
}

// NewLabelProp creates a label propagation program.
func NewLabelProp() *LabelProp { return &LabelProp{} }

// mix64 is the splitmix64 finalizer, the per-round salt generator.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// lpKey packs a label into a comparable lane: salted hash in the high 32
// bits, the label itself in the low 32 so minimization tie-breaks stably.
func lpKey(label uint32, salt uint64) uint64 {
	x := (uint64(label) + 1) ^ salt
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return (x << 32) | uint64(label)
}

// Identity implements Program: the maximal key.
func (p *LabelProp) Identity() uint64 { return ^uint64(0) }

// Combine implements Program: minimization over packed keys.
func (p *LabelProp) Combine(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// Message implements Program: the source's label under this round's salt.
func (p *LabelProp) Message(srcVal uint64, _ uint32, _ float32) uint64 {
	return lpKey(uint32(srcVal), p.salt)
}

// Apply implements Program: adopt the winning label; vertices with no
// in-neighbors keep their own.
func (p *LabelProp) Apply(old, agg uint64, _ uint32) (uint64, bool) {
	if agg == ^uint64(0) {
		return old, false
	}
	nl := uint64(uint32(agg))
	return nl, nl != old
}

// InitProps implements Program: every vertex starts with its own label.
func (p *LabelProp) InitProps(props []uint64) {
	for i := range props {
		props[i] = uint64(i)
	}
	p.round = 0
}

// PreIteration implements Program: advance the round salt. The engine calls
// this once per iteration before the Edge phase, so round r (1-based) hashes
// with mix64(r) — the sequential reference reproduces the same schedule.
func (p *LabelProp) PreIteration([]uint64) {
	p.round++
	p.salt = mix64(p.round)
}

// InitFrontier implements Program: frontier-blind.
func (p *LabelProp) InitFrontier(f *frontier.Dense) { f.Fill() }

// InitConverged implements Program.
func (p *LabelProp) InitConverged(*frontier.Dense) {}

// UsesFrontier implements Program: salts change every round, so skipping
// unchanged sources would change the semantics.
func (p *LabelProp) UsesFrontier() bool { return false }

// TracksConverged implements Program.
func (p *LabelProp) TracksConverged() bool { return false }

// SkipEqualWrites implements Program.
func (p *LabelProp) SkipEqualWrites() bool { return false }

// Weighted implements Program.
func (p *LabelProp) Weighted() bool { return false }

// DistinctLabels counts distinct labels. Labels are vertex ids, so a dense
// bitmap over the vertex space suffices.
func DistinctLabels(props []uint64) int {
	seen := make([]bool, len(props))
	n := 0
	for _, v := range props {
		if !seen[uint32(v)] {
			seen[uint32(v)] = true
			n++
		}
	}
	return n
}
