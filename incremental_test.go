package grazelle

import (
	"context"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRunIncrementalMatchesRun drives RunIncremental's three branches — an
// app with no planner, a batch the planner refuses and a batch it seeds —
// and holds each to Run on the same successor graph, lane for lane.
func TestRunIncrementalMatchesRun(t *testing.T) {
	const n = 300
	base := gen.ErdosRenyi(n, 450, 7) // sparse: many components for cc to merge
	inserts := []EdgeOp{
		{Src: 3, Dst: 250},
		{Src: 17, Dst: 101},
		{Src: 299, Dst: n}, // grows the vertex space by one
	}
	withDelete := append([]EdgeOp{{Delete: true, Src: base.Edges[0].Src, Dst: base.Edges[0].Dst}}, inserts...)
	ctx := context.Background()
	for _, tc := range []struct {
		name       string
		app        string
		p          Params
		ops        []EdgeOp
		wantSeeded bool
	}{
		{"pr-no-planner", "pr", Params{Iters: 8}, inserts, false},
		{"cc-delete-refused", "cc", Params{}, withDelete, false},
		{"cc-insert-seeded", "cc", Params{}, inserts, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred := NewEngine(wrap(base), Options{Workers: 2})
			defer pred.Close()
			predRes, err := pred.Run(ctx, tc.app, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			succ := NewEngine(wrap(graph.ApplyEdgeOps(base, tc.ops)), Options{Workers: 2})
			defer succ.Close()
			cold, err := succ.Run(ctx, tc.app, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			warm, seeded, err := succ.RunIncremental(ctx, tc.app, tc.p, SeedSpec{PredProps: predRes.Props, Ops: tc.ops})
			if err != nil {
				t.Fatal(err)
			}
			if seeded != tc.wantSeeded {
				t.Errorf("seeded = %v, want %v", seeded, tc.wantSeeded)
			}
			if warm.App != cold.App || warm.Params != cold.Params {
				t.Errorf("RunIncremental ran %s %+v, Run ran %s %+v", warm.App, warm.Params, cold.App, cold.Params)
			}
			if !slices.Equal(warm.Props, cold.Props) {
				t.Errorf("RunIncremental's %d lanes differ from Run's %d", len(warm.Props), len(cold.Props))
			}
		})
	}
}
