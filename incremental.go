package grazelle

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/store"
)

// Incremental recompute (DESIGN.md §15): when a query targets a graph
// version whose predecessor already has a computed result and the mutation
// delta connecting the two is small, RunIncremental warm-starts the run
// from the predecessor's lanes instead of cold-starting. The app's registry
// entry decides whether its semantics permit that (apps.Entry.
// IncrementalSeed); every failure mode — app without the capability, delta
// violating the app's preconditions, seed failing to install — degrades to
// a plain full recompute, so the path can only save time, never change a
// result.

// Delta is the materialized mutation delta between two published versions
// of a stored graph (see Store.DeltaBetween).
type Delta = store.Delta

// DeltaBetween returns the edge operations connecting version from to
// version to of the named graph, plus the older version's dimensions. It
// reports false whenever the delta cannot be recovered exactly — versions
// from different lineages, history evicted, or the delta log already
// compacted past the range — and callers then run cold.
func (s *Store) DeltaBetween(name string, from, to uint64) (Delta, bool) {
	return s.s.DeltaBetween(name, from, to)
}

// SeedSpec carries the warm-start inputs for RunIncremental: a predecessor
// run's final lanes and the delta connecting that predecessor to the
// engine's graph.
type SeedSpec struct {
	// PredProps are the predecessor result's property lanes, computed with
	// the same app and canonical params on the predecessor version.
	PredProps []uint64
	// Ops is the mutation delta from the predecessor version to the
	// engine's graph, in log order.
	Ops []EdgeOp
	// FromEdges is the predecessor's edge count; FromCountsKnown whether it
	// is exact (Delta.FromEdges / Delta.FromCountsKnown).
	FromEdges       int
	FromCountsKnown bool
}

// RunIncremental is Run seeded from a predecessor result. Seeded reports
// whether the warm start actually held; false means the run fell back to a
// full recompute (unsupported app, delta outside the app's seeding
// preconditions, or a seed-installation failure) — the result is valid
// either way and bit-compatible with a cold Run.
func (e *Engine) RunIncremental(ctx context.Context, app string, p Params, spec SeedSpec) (res *AppResult, seeded bool, err error) {
	ent, err := apps.Lookup(app)
	if err != nil {
		return nil, false, err
	}
	p = ent.ZeroUnused(p)
	if ent.NeedsWeights && !e.g.Weighted() {
		return nil, false, fmt.Errorf("grazelle: %s requires a weighted graph", ent.Title)
	}
	if ent.IncrementalSeed == nil {
		res, err = e.Run(ctx, app, p)
		return res, false, err
	}
	plan, perr := ent.IncrementalSeed(apps.SeedInput{
		Vertices:        e.g.NumVertices(),
		Edges:           e.g.NumEdges(),
		Params:          p,
		Pred:            spec.PredProps,
		Ops:             spec.Ops,
		FromEdges:       spec.FromEdges,
		FromCountsKnown: spec.FromCountsKnown,
	})
	if perr != nil || plan == nil {
		res, err = e.Run(ctx, app, p)
		return res, false, err
	}
	prog, err := ent.New(e.g.core, p)
	if err != nil {
		return nil, false, err
	}
	maxIters := ent.MaxIters(p)
	if plan.Direct {
		maxIters = 0
	}
	cres, err := core.RunCtx(ctx, e.r, prog, maxIters, &core.Seed{
		Props:    plan.Props,
		Frontier: plan.Frontier,
	})
	if err == nil && plan.Direct && !cres.Seeded {
		// The seed failed to install and the plan carried no iteration
		// budget, so the engine returned cold-init lanes. Non-direct plans
		// self-heal — a failed seed there just runs the full budget cold —
		// but a direct plan must be re-run in full.
		res, err = e.Run(ctx, app, p)
		return res, false, err
	}
	return &AppResult{
		App:    app,
		Params: p,
		Props:  cres.Props,
		Stats:  statsOf(cres),
		entry:  ent,
	}, cres.Seeded, err
}
