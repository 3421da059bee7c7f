package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// assertServesRebuild checks that what h serves is what a store that always
// rebuilds would serve for base ⊕ ops: the same edge list, byte-identical
// engine layouts, and for every registered app the same property lanes as a
// run over a from-scratch core.BuildGraph.
func assertServesRebuild(t *testing.T, h *Handle, base *graph.Graph, ops []graph.EdgeOp, label string) {
	t.Helper()
	want := graph.ApplyEdgeOps(base, ops)
	if !reflect.DeepEqual(h.Source(), want) {
		t.Fatalf("%s: served edge list differs from base ⊕ ops", label)
	}
	wantCG := core.BuildGraph(want)
	got := h.Runner().Graph()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"CSR", got.CSR, wantCG.CSR}, {"CSC", got.CSC, wantCG.CSC},
		{"VSS", got.VSS, wantCG.VSS}, {"VSD", got.VSD, wantCG.VSD},
		{"EdgeDst", got.EdgeDst, wantCG.EdgeDst},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from a from-scratch BuildGraph", label, f.name)
		}
	}
	ref := core.NewRunner(wantCG, core.Options{Workers: h.Runner().Pool().Workers()})
	defer ref.Close()
	for _, ent := range apps.All() {
		p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
		run := func(r *core.Runner, g *graph.Graph) []uint64 {
			prog, err := ent.New(g, r.Graph(), p)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, ent.Name, err)
			}
			res, err := core.RunCtx(context.Background(), r, prog, ent.MaxIters(p))
			if err != nil {
				t.Fatalf("%s: %s: %v", label, ent.Name, err)
			}
			return res.Props
		}
		assertBitIdentical(t, run(ref, want), run(h.Runner(), h.Source()), label+": "+ent.Name)
	}
}

// TestMaterializeArmsServeWhatRebuildServes drives one graph through every
// materialization arm — patch after a mutation, patch again on a patched
// predecessor, shared after a compaction, rebuild after a reopen and after
// the predecessor was evicted — and holds each served version to the
// always-rebuild store's content and answers for all nine apps.
func TestMaterializeArmsServeWhatRebuildServes(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := gen.AddUniformWeights(gen.RMAT(8, 2400, gen.DefaultRMAT, 15), 16)
	if err := s.Add("g", base); err != nil {
		t.Fatal(err)
	}
	acquire := func(s *Store) *Handle {
		t.Helper()
		h, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	arms := func(s *Store) MaterializeStats { return s.Stats().Materialize }
	var ops []graph.EdgeOp
	mutate := func(s *Store, round int) {
		t.Helper()
		batch := mutOps(base, round, true)
		batch = append(batch, graph.EdgeOp{Src: uint32(round), Dst: 5, Weight: float32(round) + 0.5})
		mustApply(t, s, "g", batch)
		ops = append(ops, batch...)
	}

	mutate(s, 0)
	h := acquire(s)
	assertServesRebuild(t, h, base, ops, "patch")
	h.Close()
	mutate(s, 1)
	h = acquire(s)
	assertServesRebuild(t, h, base, ops, "patch of a patch")
	if got := arms(s); got != (MaterializeStats{Patch: 2}) {
		t.Fatalf("after two mutate → query rounds: %+v, want 2 patches", got)
	}

	// Compaction republishes identical content: nothing to apply, so the
	// successor takes its predecessor's two graphs as they are.
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	hc := acquire(s)
	if hc.Version() == h.Version() {
		t.Fatal("compaction did not publish a successor")
	}
	if hc.Source() != h.Source() || hc.Runner().Graph() != h.Runner().Graph() {
		t.Fatal("compaction successor did not share its predecessor's graphs")
	}
	if got := arms(s); got != (MaterializeStats{Patch: 2, Shared: 1}) {
		t.Fatalf("after compaction: %+v, want one shared", got)
	}
	assertServesRebuild(t, hc, base, ops, "shared")
	h.Close()
	hc.Close()
	s.Close()
	// The fold is the base from here on: later batches apply to its edge
	// order, in a rebuilding store as much as in this one.
	base, ops = graph.ApplyEdgeOps(base, ops), nil

	// No seed after a reopen, and none once the idle predecessor is evicted.
	s, err = Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h = acquire(s)
	assertServesRebuild(t, h, base, ops, "rebuild after reopen")
	h.Close()
	evictAll(t, s)
	mutate(s, 2)
	h = acquire(s)
	defer h.Close()
	assertServesRebuild(t, h, base, ops, "rebuild after eviction")
	if got := arms(s); got != (MaterializeStats{Rebuild: 2}) {
		t.Fatalf("reopened store: %+v, want 2 rebuilds", got)
	}
}

// TestMaterializeRebuildsWhenBatchTouchesMostGroups: a batch naming every
// vertex leaves nothing to copy, so the store rebuilds — decided from the
// batch and the predecessor, not from a setting.
func TestMaterializeRebuildsWhenBatchTouchesMostGroups(t *testing.T) {
	s, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := gen.AddUniformWeights(gen.ErdosRenyi(300, 1500, 7), 8)
	if err := s.Add("g", base); err != nil {
		t.Fatal(err)
	}
	var ops []graph.EdgeOp
	for v := uint32(0); v < 300; v++ {
		ops = append(ops, graph.EdgeOp{Src: v, Dst: (v + 1) % 300})
	}
	mustApply(t, s, "g", ops)
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	assertServesRebuild(t, h, base, ops, "dense batch")
	if got := s.Stats().Materialize; got != (MaterializeStats{Rebuild: 1}) {
		t.Fatalf("%+v, want one rebuild", got)
	}
}
