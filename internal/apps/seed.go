package apps

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Incremental seed planning (DESIGN.md §15). An Entry that can warm-start
// from a predecessor version's result sets IncrementalSeed; given the new
// graph's vertex count, the predecessor's final lanes, and the edge
// operations connecting the two versions, the planner either produces a
// SeedPlan or returns an error naming why a full recompute is required. A
// planner may only accept a delta when the seeded run provably reaches the
// cold run's result on the new graph; anything it cannot prove falls back —
// a fallback costs time, never correctness.
//
// One rule is registered: cc's min-label fixpoint, re-seeded from the
// delta's endpoints. Its fallback taxonomy (the sentinel errors below):
//
//   - ErrSeedShape: the predecessor lanes cannot be a prefix of the new
//     vertex space (replace/delete slipped through, or corrupt input).
//   - ErrSeedDeletes: the delta removes edges. A deletion may split a
//     component, which needs labels to rise; the engine's min lattice
//     cannot express that.
var (
	ErrSeedShape   = errors.New("apps: seed: predecessor shape mismatch")
	ErrSeedDeletes = errors.New("apps: seed: delta contains deletions")
)

// SeedInput is what a planner sees: the vertex count of the successor graph
// a query is about to run on, the predecessor version's final property
// lanes, and the delta connecting predecessor to successor. Neither graph's
// edges are available — by the time a query arrives the old version's
// materialized form may be gone — so every rule must be stated in terms of
// the ops and the predecessor lanes.
type SeedInput struct {
	// Vertices is the new (successor) version's vertex count.
	Vertices int
	// Pred holds the predecessor version's final property lanes.
	Pred []uint64
	// Ops are the acknowledged edge operations connecting the predecessor
	// view to the new view, in log order (last-writer-wins per pair).
	Ops []graph.EdgeOp
}

// SeedPlan is a planner's accepted warm start.
type SeedPlan struct {
	// Props are the starting lanes for the new graph (length =
	// SeedInput.Vertices).
	Props []uint64
	// Frontier lists the delta-touched vertices active in the first
	// iteration.
	Frontier []uint32
}

// finalOps resolves the batch to its last-writer-wins outcome: the final
// operation per (src, dst) pair, in first-occurrence order. Planner rules
// reason about surviving operations — an edge inserted then deleted within
// the delta never existed as far as the successor graph is concerned.
func finalOps(ops []graph.EdgeOp) []graph.EdgeOp {
	type pair struct{ src, dst uint32 }
	last := make(map[pair]int, len(ops))
	for i, op := range ops {
		last[pair{op.Src, op.Dst}] = i
	}
	out := make([]graph.EdgeOp, 0, len(last))
	for i, op := range ops {
		if last[pair{op.Src, op.Dst}] == i {
			out = append(out, op)
		}
	}
	return out
}

// extendLanes returns pred extended to n lanes, filling new vertices via
// fill(v). It fails with ErrSeedShape when pred is longer than n — vertex
// counts only ever grow along a lineage, so a shrink means the input is not
// actually a predecessor.
func extendLanes(pred []uint64, n int, fill func(v int) uint64) ([]uint64, error) {
	if len(pred) > n {
		return nil, fmt.Errorf("%w: predecessor has %d lanes, new graph %d vertices", ErrSeedShape, len(pred), n)
	}
	props := make([]uint64, n)
	copy(props, pred)
	for v := len(pred); v < n; v++ {
		props[v] = fill(v)
	}
	return props, nil
}

// deltaFrontier collects the unique endpoints of ops, in first-occurrence
// order. Sources must be active so their values flow across the delta's
// edges in the first iteration; destinations are included so pull-direction
// iterations gather them immediately.
func deltaFrontier(ops []graph.EdgeOp, n int) []uint32 {
	seen := make(map[uint32]struct{}, 2*len(ops))
	out := make([]uint32, 0, 2*len(ops))
	add := func(v uint32) {
		if int(v) >= n {
			return
		}
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, op := range ops {
		add(op.Src)
		add(op.Dst)
	}
	return out
}

// seedCC is the connected-components planner. Labels are a min fixpoint:
// the predecessor labels are correct for the old edges, insertions can only
// lower labels, and lowering propagates from the delta's endpoints — so
// seeding the predecessor labels (own-id for new vertices) with the delta
// endpoints as the frontier converges to exactly the cold fixpoint.
// Deletions may split a component, which needs labels to rise; the engine's
// min lattice cannot, so any surviving deletion falls back.
func seedCC(in SeedInput) (*SeedPlan, error) {
	fo := finalOps(in.Ops)
	for _, op := range fo {
		if op.Delete {
			return nil, ErrSeedDeletes
		}
	}
	n := in.Vertices
	props, err := extendLanes(in.Pred, n, func(v int) uint64 { return uint64(v) })
	if err != nil {
		return nil, err
	}
	return &SeedPlan{Props: props, Frontier: deltaFrontier(fo, n)}, nil
}
