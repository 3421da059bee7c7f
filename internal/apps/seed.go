package apps

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Incremental seed planning (DESIGN.md §15). An Entry that can warm-start
// from a predecessor version's result sets IncrementalSeed; given the new
// graph, the predecessor's final lanes, and the edge operations connecting
// the two versions, the planner either produces a SeedPlan or returns an
// error naming why a full recompute is required. Every rule here is
// conservative: the planner may only accept a delta when the seeded run is
// provably equivalent to a cold run on the new graph (exact for integer
// lanes, within float-reassociation tolerance for float lanes). Anything it
// cannot prove falls back — a fallback costs time, never correctness.
//
// Fallback taxonomy (the sentinel errors below):
//
//   - ErrSeedShape: the predecessor lanes cannot be a prefix of the new
//     vertex space (replace/delete slipped through, or corrupt input).
//   - ErrSeedDeletes: the delta removes edges and the app's values can only
//     decrease monotonically under the engine — a deletion may need values
//     to rise (a split component, a lengthened path), which seeded
//     iteration cannot express.
//   - ErrSeedRaises: an upsert may raise an existing edge's weight on a
//     load-bearing shortest path (sssp) — same monotonicity problem.
//   - ErrSeedTopology: the delta demonstrably changes topology that a
//     direct (zero-iteration) plan requires unchanged (pr/ppr), or changes
//     the BFS tree (new reachable vertex, shorter level, smaller parent).
//   - ErrSeedUnknown: the predecessor's exact counts are unknown, so a rule
//     that compares them cannot run.
var (
	ErrSeedShape    = errors.New("apps: seed: predecessor shape mismatch")
	ErrSeedDeletes  = errors.New("apps: seed: delta contains deletions")
	ErrSeedRaises   = errors.New("apps: seed: delta may raise a shortest-path distance")
	ErrSeedTopology = errors.New("apps: seed: delta changes result-bearing topology")
	ErrSeedUnknown  = errors.New("apps: seed: predecessor counts unknown")
)

// SeedInput is what a planner sees: the dimensions of the successor graph a
// query is about to run on, the normalized params, the predecessor version's
// final property lanes, and the delta connecting predecessor to successor.
// Neither graph's edges are available — by the time a query arrives the old
// version's materialized form may be gone — so every rule must be stated in
// terms of the ops, the predecessor lanes, and the recorded counts.
type SeedInput struct {
	// Vertices and Edges are the new (successor) version's vertex and edge
	// counts.
	Vertices, Edges int
	// Params are the normalized run parameters (identical to the
	// predecessor run's, by cache-key construction).
	Params Params
	// Pred holds the predecessor version's final property lanes.
	Pred []uint64
	// Ops are the acknowledged edge operations connecting the predecessor
	// view to the new view, in log order (last-writer-wins per pair).
	Ops []graph.EdgeOp
	// FromEdges is the predecessor's edge count; FromCountsKnown reports
	// whether it is exact (planners needing it must require this).
	FromEdges       int
	FromCountsKnown bool
}

// SeedPlan is a planner's accepted warm start.
type SeedPlan struct {
	// Props are the starting lanes for the new graph (length =
	// SeedInput.Vertices).
	Props []uint64
	// Frontier lists the delta-touched vertices active in the first
	// iteration (unused for Direct plans).
	Frontier []uint32
	// Direct means Props already IS the new version's result: run zero
	// iterations. Used when the delta provably does not change the result
	// (pr/ppr over unchanged topology, bfs when no tree edge moved).
	Direct bool
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

// seedRankDirect is the pr/ppr planner. A fixed-iteration PageRank cannot be
// warm-started within tolerance — seeding changes the trajectory, and after
// k damped iterations the results differ by O(0.85^k·|seed-x0|), far above
// 1e-9 — so the only incremental win is recognizing a no-op delta: no
// surviving deletions, no new vertices, and an unchanged edge count mean
// every surviving operation re-asserted an existing (src, dst) pair
// (weights may have changed, which rank ignores), so the topology is
// unchanged and the predecessor result IS the new result.
func seedRankDirect(in SeedInput) (*SeedPlan, error) {
	n := in.Vertices
	if len(in.Pred) != n {
		return nil, fmt.Errorf("%w: %d lanes for %d vertices", ErrSeedShape, len(in.Pred), n)
	}
	if !in.FromCountsKnown {
		return nil, ErrSeedUnknown
	}
	if in.Edges != in.FromEdges {
		return nil, fmt.Errorf("%w: edge count %d -> %d", ErrSeedTopology, in.FromEdges, in.Edges)
	}
	for _, op := range finalOps(in.Ops) {
		if op.Delete {
			return nil, ErrSeedDeletes
		}
	}
	// No deletions and an equal edge count: every surviving upsert collapsed
	// onto exactly one pre-existing edge (a genuinely new pair, or a pair
	// with base duplicates, would change the count). Topology identical.
	props := make([]uint64, n)
	copy(props, in.Pred)
	return &SeedPlan{Props: props, Direct: true}, nil
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

// seedSSSP is the shortest-paths planner. Distances are a min fixpoint over
// d(v) = min(d(u) + w(u,v)); the predecessor distances upper-bound the new
// fixpoint as long as no constraint weakened. A deletion weakens one
// outright. An upsert (u,v,w) may be a weight *raise* on an existing edge;
// that only matters when the old edge could have been load-bearing, which
// is excluded when d(u)+w ≤ d(v) (the new constraint alone caps v at its
// old distance) or when u was unreachable (the old edge, if any, carried
// nothing). Everything else falls back.
func seedSSSP(in SeedInput) (*SeedPlan, error) {
	fo := finalOps(in.Ops)
	pn := len(in.Pred)
	for _, op := range fo {
		if op.Delete {
			return nil, ErrSeedDeletes
		}
		if op.Weight < 0 {
			// Negative weights void the monotone-relaxation argument.
			return nil, fmt.Errorf("%w: negative weight %g", ErrSeedRaises, op.Weight)
		}
		if int(op.Src) >= pn || int(op.Dst) >= pn {
			continue // new endpoint: no pre-existing edge to have weakened
		}
		du, dv := asF64(in.Pred[op.Src]), asF64(in.Pred[op.Dst])
		if du+float64(op.Weight) > dv {
			// Could be a raise of a load-bearing edge; without the old graph
			// we cannot tell, so fall back. (du = +Inf implies the old edge
			// carried nothing, but then du+w > dv triggers only when dv is
			// finite — and an edge from an unreachable u to a reached v is
			// never load-bearing, so that case is safe.)
			if !isInf(du) {
				return nil, fmt.Errorf("%w: op (%d->%d, w=%g)", ErrSeedRaises, op.Src, op.Dst, op.Weight)
			}
		}
	}
	n := in.Vertices
	props, err := extendLanes(in.Pred, n, func(int) uint64 { return Inf })
	if err != nil {
		return nil, err
	}
	return &SeedPlan{Props: props, Frontier: deltaFrontier(fo, n)}, nil
}

func isInf(x float64) bool { return x > 1.7976931348623157e308 }

// seedBFS is the BFS planner. BFS parents are not a simple min lattice —
// Apply adopts a parent exactly once — so genuine warm iteration is unsafe.
// Instead the planner proves the delta cannot change the result and returns
// a direct plan: it reconstructs each vertex's depth from the predecessor
// parent forest, then checks every surviving operation against the BFS
// invariants. An insertion (u,v) changes nothing unless u was reached and
// it either reaches a new vertex, shortens v's level, or supplies a
// smaller same-level parent. A deletion (u,v) changes nothing unless it
// removes v's actual tree edge. Any violated check falls back to full.
func seedBFS(in SeedInput) (*SeedPlan, error) {
	pn := len(in.Pred)
	root := in.Params.Root
	if int(root) >= pn || in.Pred[root] != uint64(root) {
		return nil, fmt.Errorf("%w: root %d not self-parented in predecessor", ErrSeedShape, root)
	}
	depth, err := bfsDepths(in.Pred, root)
	if err != nil {
		return nil, err
	}
	for _, op := range finalOps(in.Ops) {
		if op.Delete {
			// Only the tree edge parent[v] == u matters; the root's
			// self-parent is virtual and survives any edge deletion.
			if int(op.Dst) < pn && op.Dst != root && in.Pred[op.Dst] == uint64(op.Src) {
				return nil, fmt.Errorf("%w: deletes tree edge %d->%d", ErrSeedDeletes, op.Src, op.Dst)
			}
			continue
		}
		if int(op.Src) >= pn || depth[op.Src] < 0 {
			continue // edge from an unreached (or new) vertex carries nothing
		}
		du := depth[op.Src]
		if int(op.Dst) >= pn || depth[op.Dst] < 0 {
			return nil, fmt.Errorf("%w: edge %d->%d reaches new vertex", ErrSeedTopology, op.Src, op.Dst)
		}
		dv := depth[op.Dst]
		switch {
		case du+1 < dv:
			return nil, fmt.Errorf("%w: edge %d->%d shortens level %d to %d", ErrSeedTopology, op.Src, op.Dst, dv, du+1)
		case du+1 == dv && uint64(op.Src) < in.Pred[op.Dst]:
			return nil, fmt.Errorf("%w: edge %d->%d lowers parent id", ErrSeedTopology, op.Src, op.Dst)
		}
	}
	props, err := extendLanes(in.Pred, in.Vertices, func(int) uint64 { return NoParent })
	if err != nil {
		return nil, err
	}
	return &SeedPlan{Props: props, Direct: true}, nil
}

// bfsDepths reconstructs per-vertex BFS depths from a parent forest (-1 for
// unreached). It rejects forests that are not actually forests — a cycle, a
// parent out of range, a reached vertex hanging off an unreached one — with
// ErrSeedShape, since depth arithmetic on them proves nothing.
func bfsDepths(pred []uint64, root uint32) ([]int32, error) {
	const unknown = int32(-2)
	depth := make([]int32, len(pred))
	for i := range depth {
		depth[i] = unknown
	}
	depth[root] = 0
	var path []uint32
	for v := range pred {
		if depth[v] != unknown {
			continue
		}
		u := uint32(v)
		path = path[:0]
		for depth[u] == unknown {
			p := pred[u]
			if p == NoParent {
				depth[u] = -1
				break
			}
			if p >= uint64(len(pred)) || p == uint64(u) {
				return nil, fmt.Errorf("%w: vertex %d has invalid parent %#x", ErrSeedShape, u, p)
			}
			path = append(path, u)
			u = uint32(p)
			if len(path) > len(pred) {
				return nil, fmt.Errorf("%w: parent cycle at vertex %d", ErrSeedShape, v)
			}
		}
		d := depth[u]
		for i := len(path) - 1; i >= 0; i-- {
			if d == -1 {
				// A reached-looking vertex chained to an unreached parent:
				// inconsistent forest.
				return nil, fmt.Errorf("%w: vertex %d parented to unreached %d", ErrSeedShape, path[i], u)
			}
			d++
			depth[path[i]] = d
		}
	}
	return depth, nil
}
