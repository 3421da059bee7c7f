package core

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/sched"
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

// Seed is a warm start for RunSeededCtx.
type Seed struct {
	// Props are the starting property lanes; length must equal the graph's
	// vertex count.
	Props []uint64
	// Frontier lists the vertices active in the first iteration. For
	// frontier-driven programs an empty frontier means the seed is already a
	// fixpoint: the run stops at zero iterations with Props as the result.
	Frontier []uint32
}

// RunSeededCtx is RunCtx starting from seed. Result.Seeded reports whether
// the seed actually applied; when it did not (nil seed, wrong shape, or an
// injected fault) the run executed from the program's cold init instead —
// callers running a truncated iteration budget on the assumption the seed
// held (direct plans with maxIters 0) must check Seeded before trusting the
// result.
func RunSeededCtx[P apps.Program](ctx context.Context, r *Runner, p P, maxIters int, seed *Seed) (res Result, err error) {
	ec := r.acquire()
	ec.ctx = ctx
	ec.done = ctx.Done()
	func() {
		// Last-resort containment for panics outside guarded chunks (program
		// callbacks on the driver goroutine, frontier bookkeeping, or a
		// *PanicError rethrown by a void pool wrapper).
		defer func() {
			if rec := recover(); rec != nil {
				pe := sched.NewPanicError(rec)
				err = fmt.Errorf("core: run panicked after %d iterations: %w", res.Iterations, pe)
			}
		}()
		res, err = runLoop(ec, p, maxIters, seed)
	}()
	res.Props = ec.props
	ec.props = nil // ownership passes to the caller
	r.release(ec)
	return res, err
}

// applySeed installs seed over the just-Init'd context and reports whether
// it took. On any failure the context is re-Init'd so the caller's run is a
// bit-exact cold start — never a half-applied seed.
func applySeed[P apps.Program](ec *ExecContext, p P, seed *Seed) (ok bool) {
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
