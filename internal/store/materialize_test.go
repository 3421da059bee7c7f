package store

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/testgraph"
)

// corpusGraph returns the named testgraph corpus entry's graph.
func corpusGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	for _, c := range testgraph.Corpus() {
		if c.Name == name {
			return c.G
		}
	}
	t.Fatalf("no corpus graph %q", name)
	return nil
}

// assertServesRebuild checks that what h serves is what a store that always
// rebuilds would serve for base ⊕ ops: byte-identical engine layouts, and
// for every registered app the same property lanes as a run over a
// from-scratch core.BuildGraph.
func assertServesRebuild(t *testing.T, h *Handle, base *graph.Graph, ops []graph.EdgeOp, label string) {
	t.Helper()
	want := core.BuildGraph(graph.ApplyEdgeOps(base, ops))
	got := h.Runner().Graph()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"N", got.N, want.N}, {"Edges", got.Edges, want.Edges}, {"Weighted", got.Weighted, want.Weighted},
		{"CSR", got.CSR, want.CSR}, {"CSC", got.CSC, want.CSC},
		{"VSS", got.VSS, want.VSS}, {"VSD", got.VSD, want.VSD},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from a from-scratch BuildGraph", label, f.name)
		}
	}
	ref := core.NewRunner(want, core.Options{Workers: h.Runner().Pool().Workers()})
	defer ref.Close()
	for _, ent := range apps.All() {
		p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
		run := func(r *core.Runner) []uint64 {
			prog, err := ent.New(r.Graph(), p)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, ent.Name, err)
			}
			res, err := core.RunCtx(context.Background(), r, prog, ent.MaxIters(p), nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, ent.Name, err)
			}
			return res.Props
		}
		assertBitIdentical(t, run(ref), run(h.Runner()), label+": "+ent.Name)
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
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
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
	// successor takes its predecessor's layouts as they are.
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	hc := acquire(s)
	if hc.Version() == h.Version() {
		t.Fatal("compaction did not publish a successor")
	}
	if hc.Runner().Graph() != h.Runner().Graph() {
		t.Fatal("compaction successor did not share its predecessor's layouts")
	}
	if got := arms(s); got != (MaterializeStats{Patch: 2, Shared: 1}) {
		t.Fatalf("after compaction: %+v, want one shared", got)
	}
	assertServesRebuild(t, hc, base, ops, "shared")
	h.Close()
	hc.Close()
	s.Close()

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

// TestSnapshotsRebuildTheServedLayouts: every snapshot the store writes — at
// Add, Compact and Snapshot — holds its version's edges in CSR order, not in
// the order they arrived. A store that evicts to, or reopens onto, any of
// them, with the log's batches replayed on top, must still serve what a
// from-scratch BuildGraph of the original base ⊕ every batch serves, for all
// nine apps.
func TestSnapshotsRebuildTheServedLayouts(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		s, err := Open(Config{DataDir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	defer func() { s.Close() }()
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	var ops []graph.EdgeOp
	mutate := func(round int) {
		t.Helper()
		batch := append(mutOps(base, round, true), graph.EdgeOp{Src: uint32(round), Dst: 3, Weight: float32(round) + 0.25})
		mustApply(t, s, "g", batch)
		ops = append(ops, batch...)
	}
	check := func(label string) {
		t.Helper()
		h, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		assertServesRebuild(t, h, base, ops, label)
	}
	reopen := func() {
		t.Helper()
		s.Close()
		s = open()
	}

	evictAll(t, s)
	check("the snapshot Add wrote")
	mutate(0)
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	mutate(1)
	evictAll(t, s)
	check("the compacted snapshot and one batch")
	mutate(2)
	if err := s.Snapshot("g"); err != nil {
		t.Fatal(err)
	}
	reopen()
	check("the Snapshot file, its batches replayed again")
	mutate(3)
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	reopen()
	check("the compacted snapshot alone")
	if got := s.Stats().Materialize; got != (MaterializeStats{Rebuild: 1}) {
		t.Fatalf("reopened store: %+v, want one rebuild", got)
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
	base := corpusGraph(t, "weighted-mesh-9x9")
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	var ops []graph.EdgeOp
	n := uint32(base.NumVertices)
	for v := uint32(0); v < n; v++ {
		ops = append(ops, graph.EdgeOp{Src: v, Dst: (v + 1) % n})
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

// TestSeedChargedAndDroppedFirst: a successor's seed — its predecessor's
// layouts, kept to splice from — is charged to the resident total and
// reported, moves with its charge to a successor that inherits it, and under a
// tight budget is dropped before any resident graph is evicted; the version's
// first read then comes through the rebuild arm and serves what a rebuild
// serves.
func TestSeedChargedAndDroppedFirst(t *testing.T) {
	base, other, third := testgraph.Skewed().G, corpusGraph(t, "long-hub"), corpusGraph(t, "weighted-mesh-9x9")
	size := func(g *graph.Graph) int64 { return core.BuildGraph(g).MemoryBytes() }
	sa, sb, sc := size(base), size(other), size(third)
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2, MemBudget: sa + sb + sc - 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{{"a", base}, {"b", other}} {
		if err := s.Add(g.name, core.BuildGraph(g.g)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, resident, seeds int64) {
		t.Helper()
		st := s.Stats()
		if st.BytesResident != resident || st.BytesSeeds != seeds || st.Evictions != 0 {
			t.Fatalf("%s: resident %d seeds %d evictions %d, want %d %d 0", label,
				st.BytesResident, st.BytesSeeds, st.Evictions, resident, seeds)
		}
	}
	check("two graphs", sa+sb, 0)

	// The idle predecessor is freed at publish; its bytes stay counted, now
	// as the successor's seed — and move with it to the next successor.
	ops := mutOps(base, 0, true)
	mustApply(t, s, "a", ops)
	check("after a mutation", sa+sb, sa)
	batch := mutOps(base, 1, false)
	mustApply(t, s, "a", batch)
	ops = append(ops, batch...)
	check("after a second mutation", sa+sb, sa)

	// A third graph overflows the budget: the seed goes, "b" stays resident.
	if err := s.Add("c", core.BuildGraph(third)); err != nil {
		t.Fatal(err)
	}
	check("after the overflow", sb+sc, 0)
	for _, gi := range s.List() {
		if gi.Name != "a" && !gi.Resident {
			t.Fatalf("%s was evicted; the seed should have gone first", gi.Name)
		}
	}

	h, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if got := s.Stats().Materialize; got != (MaterializeStats{Rebuild: 1}) {
		t.Fatalf("first read without its seed: %+v, want one rebuild", got)
	}
	assertServesRebuild(t, h, base, ops, "rebuild after the seed was dropped")
}
