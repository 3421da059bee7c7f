package apps

import (
	"repro/internal/csr"
	"repro/internal/frontier"
)

// KCoreDead is the property lane of a vertex peeled out of the k-core.
const KCoreDead = ^uint64(0)

// KCore computes the k-core of the graph by synchronous peeling, expressed
// as delta messages: each property lane holds the vertex's remaining
// in-degree, a vertex whose lane drops below K dies (lane KCoreDead), and a
// newly-dead vertex spends exactly one round in the frontier broadcasting a
// decrement of 1 along each out-edge. Aggregation is unsigned addition —
// order-free, so any schedule produces bit-identical output. Dead vertices
// are marked converged and ignore further messages; the run terminates when
// a round kills nobody (empty frontier).
//
// Degrees are directed in-degrees, mirroring ConnectedComponents' contract:
// on a symmetric graph this is the true undirected k-core. Multi-edges count
// with multiplicity; a self-loop counts toward the in-degree but is never
// decremented (its endpoint is already dead when the message would land),
// which only affects vertices that are dead either way.
type KCore struct {
	// K is the core threshold: surviving vertices keep in-degree >= K.
	K uint64

	indeg []uint64
}

// NewKCore creates a k-core program with threshold k (negative values clamp
// to 0, which keeps every vertex) for the graph whose edges in groups by
// destination (CSC).
func NewKCore(in *csr.Matrix, k int) *KCore {
	indeg := make([]uint64, in.N)
	for v := range indeg {
		indeg[v] = in.Index[v+1] - in.Index[v]
	}
	if k < 0 {
		k = 0
	}
	return &KCore{K: uint64(k), indeg: indeg}
}

// Name implements Program.
func (p *KCore) Name() string { return "KCore" }

// Identity implements Program: zero decrements.
func (p *KCore) Identity() uint64 { return 0 }

// Combine implements Program: addition of decrement counts.
func (p *KCore) Combine(a, b uint64) uint64 { return a + b }

// Message implements Program: a frontier (just-died) source removes one
// in-edge from each out-neighbor.
func (p *KCore) Message(_ uint64, _ uint32, _ float32) uint64 { return 1 }

// Apply implements Program: subtract the round's decrements; dying vertices
// report changed so they enter the next frontier (and the converged set).
func (p *KCore) Apply(old, agg uint64, _ uint32) (uint64, bool) {
	if old == KCoreDead {
		return old, false
	}
	rem := old - agg
	if rem < p.K {
		return KCoreDead, true
	}
	return rem, false
}

// InitProps implements Program: remaining in-degree, with vertices already
// below the threshold dead from the start.
func (p *KCore) InitProps(props []uint64) {
	for v, d := range p.indeg {
		if d < p.K {
			props[v] = KCoreDead
		} else {
			props[v] = d
		}
	}
}

// PreIteration implements Program.
func (p *KCore) PreIteration([]uint64) {}

// InitFrontier implements Program: the initially-dead vertices broadcast
// their decrements in round one.
func (p *KCore) InitFrontier(f *frontier.Dense) {
	for v, d := range p.indeg {
		if d < p.K {
			f.Add(uint32(v))
		}
	}
}

// InitConverged implements Program: dead vertices ignore in-bound messages.
func (p *KCore) InitConverged(c *frontier.Dense) {
	for v, d := range p.indeg {
		if d < p.K {
			c.Add(uint32(v))
		}
	}
}

// UsesFrontier implements Program: only just-died sources message.
func (p *KCore) UsesFrontier() bool { return true }

// TracksConverged implements Program: death is permanent.
func (p *KCore) TracksConverged() bool { return true }

// SkipEqualWrites implements Program: decrement sums are not idempotent, so
// engines must not elide equal-looking writes.
func (p *KCore) SkipEqualWrites() bool { return false }

// Weighted implements Program.
func (p *KCore) Weighted() bool { return false }

// InCore counts the vertices surviving in the k-core.
func InCore(props []uint64) int {
	n := 0
	for _, v := range props {
		if v != KCoreDead {
			n++
		}
	}
	return n
}

// CoreMembership converts property lanes to a 0/1 membership vector.
func CoreMembership(props []uint64) []uint32 {
	out := make([]uint32, len(props))
	for i, v := range props {
		if v != KCoreDead {
			out[i] = 1
		}
	}
	return out
}
