package apps_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Incremental-seed conformance: the registry-wide bar for entries that set
// IncrementalSeed (DESIGN.md §15). For every such entry, on the T/U/D
// conformance analogs, a planner-accepted mutation batch warm-started from
// the predecessor's lanes must reproduce the sequential reference on the
// mutated graph. The suite iterates apps.All() like the rest of the
// conformance file, so a future seed-capable registration cannot land
// without clearing the same bar. FuzzIncrementalSeed extends the property
// to arbitrary byte-derived deltas: the planner may refuse anything, but
// whatever it accepts must be right.

// seedBatch shapes a planner-accepted delta for ent on g, mirroring the
// per-app rules: topology-preserving re-assertions for the direct plans
// (pr/ppr/bfs), fresh inserts for cc's warm fixpoint, distance-improving
// upserts for sssp.
func seedBatch(ent apps.Entry, g *graph.Graph, pred []uint64, n int) []graph.EdgeOp {
	switch ent.Name {
	case "pr", "ppr":
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
	case "bfs":
		if n > len(g.Edges) {
			n = len(g.Edges)
		}
		ops := make([]graph.EdgeOp, 0, n)
		for _, e := range g.Edges[:n] {
			ops = append(ops, graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		}
		return ops
	case "cc":
		have := make(map[[2]uint32]bool, len(g.Edges))
		for _, e := range g.Edges {
			have[[2]uint32{e.Src, e.Dst}] = true
		}
		nv := uint32(g.NumVertices)
		ops := make([]graph.EdgeOp, 0, n)
		for i := uint32(0); len(ops) < n && i < 16*nv; i++ {
			src := (i * 2654435761) % nv
			dst := (src + 1 + i%97) % nv
			if src == dst || have[[2]uint32{src, dst}] {
				continue
			}
			have[[2]uint32{src, dst}] = true
			ops = append(ops, graph.EdgeOp{Src: src, Dst: dst, Weight: 1})
		}
		return ops
	case "sssp":
		seen := make(map[[2]uint32]bool, n)
		nv := uint32(g.NumVertices)
		ops := make([]graph.EdgeOp, 0, n)
		for i := uint32(0); len(ops) < n && i < 64*nv; i++ {
			src := (i * 2654435761) % nv
			dst := (src + 1 + i%97) % nv
			if src == dst || seen[[2]uint32{src, dst}] {
				continue
			}
			du := math.Float64frombits(pred[src])
			dv := math.Float64frombits(pred[dst])
			if math.IsInf(du, 1) {
				continue
			}
			w := float32(1)
			if !math.IsInf(dv, 1) {
				if dv <= du {
					continue
				}
				w = float32(0.5 * (dv - du))
				if w <= 0 {
					continue
				}
			}
			seen[[2]uint32{src, dst}] = true
			ops = append(ops, graph.EdgeOp{Src: src, Dst: dst, Weight: w})
		}
		return ops
	}
	return nil
}

// runSeeded executes ent on g warm-started from plan and returns the lanes,
// failing the test if the seed does not install.
func runSeeded(t *testing.T, g *graph.Graph, ent apps.Entry, p apps.Params, plan *apps.SeedPlan) []uint64 {
	t.Helper()
	r := core.NewRunner(core.BuildGraph(g), core.Options{Workers: 2, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(r.Graph(), p)
	if err != nil {
		t.Fatal(err)
	}
	max := ent.MaxIters(p)
	if plan.Direct {
		max = 0
	}
	res, err := core.RunCtx(context.Background(), r, prog, max, &core.Seed{
		Props:    plan.Props,
		Frontier: plan.Frontier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Seeded {
		t.Fatal("accepted plan failed to install")
	}
	return res.Props
}

// assertSeedReference compares got against ent's sequential reference
// lanes with the conformance tolerance (exact for integer lanes, 1e-9 for
// float lanes).
func assertSeedReference(t *testing.T, ent apps.Entry, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("lane count = %d, reference %d", len(got), len(want))
	}
	for v := range want {
		if ent.FloatLanes {
			a, b := math.Float64frombits(got[v]), math.Float64frombits(want[v])
			if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
				continue
			}
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
				t.Fatalf("lane[%d] = %v, reference %v", v, a, b)
			}
		} else if got[v] != want[v] {
			t.Fatalf("lane[%d] = %#x, reference %#x", v, got[v], want[v])
		}
	}
}

func TestRegistryConformanceIncremental(t *testing.T) {
	graphs := conformanceGraphs()
	for _, ent := range apps.All() {
		if ent.IncrementalSeed == nil {
			continue
		}
		ent := ent
		t.Run(ent.Name, func(t *testing.T) {
			for name, base := range graphs {
				t.Run(name, func(t *testing.T) {
					g0 := base
					if ent.NeedsWeights {
						g0 = gen.AddUniformWeights(g0, 42)
					}
					p := conformanceParams(ent)
					pred := runConformance(t, core.BuildGraph(g0), g0, ent, p, 1)
					ops := seedBatch(ent, g0, pred, 16)
					if len(ops) == 0 {
						t.Fatal("no accepted batch constructible")
					}
					g1 := graph.ApplyEdgeOps(g0, ops)
					plan, err := ent.IncrementalSeed(apps.SeedInput{
						Vertices: g1.NumVertices, Edges: g1.NumEdges(),
						Params:          p,
						Pred:            pred,
						Ops:             ops,
						FromEdges:       g0.NumEdges(),
						FromCountsKnown: true,
					})
					if err != nil {
						t.Fatalf("planner refused a by-construction safe delta: %v", err)
					}
					got := runSeeded(t, g1, ent, p, plan)
					assertSeedReference(t, ent, ent.Reference(g1, p), got)
				})
			}
		})
	}
}

// Fuzz state: one small base graph and the predecessor lanes per
// seed-capable app, computed once — fuzz iterations only pay for the delta.
var (
	fuzzSeedOnce  sync.Once
	fuzzSeedBase  *graph.Graph
	fuzzSeedBaseW *graph.Graph
	fuzzSeedPred  map[string][]uint64
	fuzzSeedApps  []apps.Entry
)

func fuzzSeedSetup() {
	fuzzSeedBase = gen.Generate(gen.Twitter, 0.02)
	fuzzSeedBaseW = gen.AddUniformWeights(fuzzSeedBase, 42)
	fuzzSeedPred = map[string][]uint64{}
	for _, ent := range apps.All() {
		if ent.IncrementalSeed == nil {
			continue
		}
		fuzzSeedApps = append(fuzzSeedApps, ent)
		g := fuzzSeedBase
		if ent.NeedsWeights {
			g = fuzzSeedBaseW
		}
		p := conformanceParams(ent)
		r := core.NewRunner(core.BuildGraph(g), core.Options{Workers: 2, ChunkVectors: 16})
		prog, err := ent.New(r.Graph(), p)
		if err != nil {
			panic(err)
		}
		fuzzSeedPred[ent.Name] = core.Run(r, prog, ent.MaxIters(p)).Props
		r.Close()
	}
}

// FuzzIncrementalSeed derives an arbitrary mutation batch from fuzz bytes
// and checks the one property every planner must uphold: refusing is
// always allowed, but an accepted plan's seeded run must reproduce the
// sequential reference on the mutated graph. Each op is six bytes: a kind
// byte (bit 0 delete; bit 1 re-assert the base edge the next two bytes
// index, the only batch the direct plans accept and one arbitrary ids
// almost never hit), source, destination and weight.
func FuzzIncrementalSeed(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 1, 0, 2, 8, 0, 0, 2, 0, 3, 4})
	f.Add(byte(1), []byte{1, 0, 1, 0, 2, 0})
	f.Add(byte(2), []byte{0, 0, 9, 0, 1, 2, 1, 0, 9, 0, 1, 0, 0, 0, 9, 0, 1, 6})
	f.Add(byte(3), []byte{0, 255, 255, 255, 254, 1})
	f.Add(byte(4), []byte{0, 0, 5, 0, 6, 31, 0, 0, 6, 0, 5, 31})
	// Batches the planners accept: re-assertions (bfs, ppr, pr), a fresh
	// insert (cc), a zero-weight edge out of the root (sssp).
	f.Add(byte(0), []byte{2, 0, 3, 0, 0, 0})
	f.Add(byte(1), []byte{0, 0, 9, 0, 1, 4})
	f.Add(byte(2), []byte{2, 0, 5, 0, 0, 0, 2, 1, 7, 0, 0, 0})
	f.Add(byte(3), []byte{2, 0, 7, 0, 0, 0})
	f.Add(byte(4), []byte{0, 0, 1, 0, 9, 0})
	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		fuzzSeedOnce.Do(fuzzSeedSetup)
		ent := fuzzSeedApps[int(sel)%len(fuzzSeedApps)]
		g0 := fuzzSeedBase
		if ent.NeedsWeights {
			g0 = fuzzSeedBaseW
		}
		p := conformanceParams(ent)
		nv := uint32(g0.NumVertices)
		var ops []graph.EdgeOp
		for i := 0; i+6 <= len(data) && len(ops) < 64; i += 6 {
			b := data[i : i+6]
			op := graph.EdgeOp{
				Delete: b[0]&1 == 1,
				Src:    (uint32(b[1])<<8 | uint32(b[2])) % (nv + 2),
				Dst:    (uint32(b[3])<<8 | uint32(b[4])) % (nv + 2),
				Weight: float32(b[5]%32) / 4,
			}
			if b[0]&2 != 0 {
				e := g0.Edges[(int(b[1])<<8|int(b[2]))%len(g0.Edges)]
				op = graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: e.Weight}
			}
			if op.Src == op.Dst {
				continue
			}
			ops = append(ops, op)
		}
		if len(ops) == 0 {
			return
		}
		g1 := graph.ApplyEdgeOps(g0, ops)
		plan, err := ent.IncrementalSeed(apps.SeedInput{
			Vertices: g1.NumVertices, Edges: g1.NumEdges(),
			Params:          p,
			Pred:            fuzzSeedPred[ent.Name],
			Ops:             ops,
			FromEdges:       g0.NumEdges(),
			FromCountsKnown: true,
		})
		if err != nil {
			return // fallback to full recompute: always safe
		}
		got := runSeeded(t, g1, ent, p, plan)
		assertSeedReference(t, ent, ent.Reference(g1, p), got)
	})
}
