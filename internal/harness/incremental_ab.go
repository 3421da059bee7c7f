package harness

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/graph"
)

// IncrementalAB measures incremental recompute (DESIGN.md §15) against full
// recompute: for each seed-capable hot-path app on the T/U/D analogs, a
// small mutation batch is applied and the new version's result is computed
// both ways — cold, and seeded from the predecessor's lanes via the app's
// IncrementalSeed planner. The incremental timing includes planning, and
// each row also times what precedes either run — materializing the mutated
// version, by rebuild and by splice — so the mutation → answer ratio is the
// end-to-end gain a serving layer would see. Batches are shaped
// per app to exercise the intended fast path: pr and bfs get re-assertions
// of existing edges (topology-preserving, the direct plan), cc gets
// genuinely new edges (warm frontier-seeded fixpoint).

// IncrementalABResult is one (dataset, app, batch size) A/B row.
type IncrementalABResult struct {
	Dataset       string `json:"dataset"`
	App           string `json:"app"`
	BatchOps      int    `json:"batch_ops"`
	FullNS        int64  `json:"full_ns"`
	IncrementalNS int64  `json:"incremental_ns"`
	// Speedup is FullNS / IncrementalNS: the engine alone, on a version that
	// is already materialized.
	Speedup float64 `json:"speedup"`
	// MaterializeRebuildNS and MaterializePatchNS are what stands between
	// the acknowledged batch and either run: merging the batch into the edge
	// list plus producing the engine layouts — by full preprocessing
	// (core.BuildGraph), and by splicing them out of the predecessor's
	// (core.PatchGraph), the store's two arms.
	MaterializeRebuildNS int64 `json:"materialize_rebuild_ns"`
	MaterializePatchNS   int64 `json:"materialize_patch_ns"`
	// MutationToAnswerSpeedup is (rebuild + full) / (patch + incremental):
	// the mutation → answer gain a serving layer sees, materialization
	// included on both sides.
	MutationToAnswerSpeedup float64 `json:"mutation_to_answer_speedup"`
	// Seeded reports whether the incremental run actually warm-started;
	// false means the planner (correctly) refused and the row compares full
	// against fallback-to-full.
	Seeded bool `json:"seeded"`
}

var (
	incrementalABApps    = []string{"pr", "cc", "bfs"}
	incrementalABBatches = []int{1, 16, 256}
)

// reassertOps builds n upserts that each re-assert an existing edge whose
// (src, dst) pair is unique in g — the batch is a topology no-op under
// last-writer-wins apply, which is what the pr/bfs direct plans detect.
func reassertOps(g *graph.Graph, n int) []graph.EdgeOp {
	count := make(map[[2]uint32]int, len(g.Edges))
	for _, e := range g.Edges {
		count[[2]uint32{e.Src, e.Dst}]++
	}
	ops := make([]graph.EdgeOp, 0, n)
	for _, e := range g.Edges {
		if count[[2]uint32{e.Src, e.Dst}] == 1 {
			ops = append(ops, graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
			if len(ops) == n {
				break
			}
		}
	}
	return ops
}

// freshEdgeOps builds n inserts of edges not present in g (and not self
// loops) — the genuinely-new-edge batch cc's warm plan propagates from.
func freshEdgeOps(g *graph.Graph, n int) []graph.EdgeOp {
	have := make(map[[2]uint32]bool, len(g.Edges))
	for _, e := range g.Edges {
		have[[2]uint32{e.Src, e.Dst}] = true
	}
	nv := uint32(g.NumVertices)
	ops := make([]graph.EdgeOp, 0, n)
	// Deterministic sweep with a large stride so the touched endpoints
	// scatter across the vertex space instead of clustering.
	for i := uint32(0); len(ops) < n && i < 4*nv; i++ {
		src := (i * 2654435761) % nv
		dst := (src + 1 + i%97) % nv
		if src == dst || have[[2]uint32{src, dst}] {
			continue
		}
		have[[2]uint32{src, dst}] = true
		ops = append(ops, graph.EdgeOp{Src: src, Dst: dst, Weight: 1})
	}
	return ops
}

// IncrementalAB produces the incremental-vs-full rows for BenchJSON.
func IncrementalAB(cfg Config) ([]IncrementalABResult, error) {
	cfg = cfg.withDefaults()
	var rows []IncrementalABResult
	for _, d := range cfg.Datasets {
		ab := string(d.Abbrev())
		if !tudDataset(ab) {
			continue
		}
		g0 := cfg.DatasetGraph(d)
		cg0 := cfg.DatasetCoreGraph(d)
		r0 := core.NewRunner(cg0, core.Options{Workers: cfg.Workers})
		for _, name := range incrementalABApps {
			ent, err := apps.Lookup(name)
			if err != nil {
				r0.Close()
				return nil, err
			}
			if ent.IncrementalSeed == nil {
				r0.Close()
				return nil, fmt.Errorf("harness: %s has no incremental capability", name)
			}
			p := ent.Normalize(apps.Params{Iters: cfg.PRIters})
			prog0, err := ent.New(g0, p)
			if err != nil {
				r0.Close()
				return nil, err
			}
			pred := core.Run(r0, prog0, ent.MaxIters(p)).Props
			for _, batch := range incrementalABBatches {
				var ops []graph.EdgeOp
				if name == "cc" {
					ops = freshEdgeOps(g0, batch)
				} else {
					ops = reassertOps(g0, batch)
				}
				if len(ops) == 0 {
					continue
				}
				var g1 *graph.Graph
				var cg1 *core.Graph
				rebuildNS := cfg.timeBest(func() {
					g1 = graph.ApplyEdgeOps(g0, ops)
					cg1 = core.BuildGraph(g1)
				}).Nanoseconds()
				patchNS := cfg.timeBest(func() {
					graph.ApplyEdgeOps(g0, ops)
					core.PatchGraph(cg0, ops)
				}).Nanoseconds()
				r1 := core.NewRunner(cg1, core.Options{Workers: cfg.Workers})
				fullNS := cfg.timeBest(func() {
					prog, err := ent.New(g1, p)
					if err != nil {
						return
					}
					core.Run(r1, prog, ent.MaxIters(p))
				}).Nanoseconds()
				var seeded bool
				incrNS := cfg.timeBest(func() {
					plan, perr := ent.IncrementalSeed(apps.SeedInput{
						Graph:           g1,
						Params:          p,
						Pred:            pred,
						Ops:             ops,
						FromEdges:       g0.NumEdges(),
						FromCountsKnown: true,
					})
					if perr != nil || plan == nil {
						seeded = false
						prog, err := ent.New(g1, p)
						if err != nil {
							return
						}
						core.Run(r1, prog, ent.MaxIters(p))
						return
					}
					max := ent.MaxIters(p)
					if plan.Direct {
						max = 0
					}
					prog, err := ent.New(g1, p)
					if err != nil {
						return
					}
					res, _ := core.RunSeededCtx(context.Background(), r1, prog, max, &core.Seed{
						Props:    plan.Props,
						Frontier: plan.Frontier,
					})
					seeded = res.Seeded
				}).Nanoseconds()
				r1.Close()
				rows = append(rows, IncrementalABResult{
					Dataset:       ab,
					App:           name,
					BatchOps:      len(ops),
					FullNS:        fullNS,
					IncrementalNS: incrNS,
					Speedup:       float64(fullNS) / float64(incrNS),
					Seeded:        seeded,

					MaterializeRebuildNS:    rebuildNS,
					MaterializePatchNS:      patchNS,
					MutationToAnswerSpeedup: float64(rebuildNS+fullNS) / float64(patchNS+incrNS),
				})
			}
		}
		r0.Close()
	}
	return rows, nil
}
