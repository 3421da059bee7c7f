package core

import (
	"repro/internal/apps"
	"repro/internal/fault"
)

// Warm-start execution (DESIGN.md §15): a run may begin from a predecessor
// result's property lanes and a frontier of delta-touched vertices instead
// of the program's cold init. The engine stays oblivious to where the seed
// came from — apps.Entry.IncrementalSeed computes it, serving layers decide
// when to use it, and this file only installs it. Safety is structural: any
// failure while installing the seed (shape mismatch, panic, the
// core/incremental-seed failpoint) restores the cold Init state and the run
// proceeds as a full recompute, so a broken seed can cost time but never
// correctness.

// Seed is a warm start for RunCtx.
type Seed struct {
	// Props are the starting property lanes; length must equal the graph's
	// vertex count.
	Props []uint64
	// Frontier lists the vertices active in the first iteration. For
	// frontier-driven programs an empty frontier means the seed is already a
	// fixpoint: the run stops at zero iterations with Props as the result.
	Frontier []uint32
}

// applySeed installs seed over the just-Init'd context and reports whether
// it took. On any failure the context is re-Init'd so the caller's run is a
// bit-exact cold start — never a half-applied seed.
func applySeed(ec *ExecContext, p apps.Program, seed *Seed) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ec.Init(p)
			ok = false
		}
	}()
	if err := fault.Inject("core/incremental-seed"); err != nil {
		panic(err)
	}
	if seed == nil || len(seed.Props) != len(ec.props) {
		return false
	}
	copy(ec.props, seed.Props)
	ec.contribCurrent = false
	ec.front.Clear()
	n := uint32(ec.g.N)
	for _, v := range seed.Frontier {
		if v >= n {
			ec.Init(p)
			return false
		}
		ec.front.Add(v)
	}
	return true
}
