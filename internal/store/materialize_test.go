package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
	"repro/internal/vsparse"
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
// for every registered app the base's weights allow the same property lanes
// as a run over a from-scratch core.BuildGraph.
func assertServesRebuild(t *testing.T, h *Handle, base *graph.Graph, ops []graph.EdgeOp, label string) {
	t.Helper()
	want := assertRebuildLayouts(t, h, base, ops, label)
	ref := core.NewRunner(want, core.Options{Workers: h.Runner().Pool().Workers()})
	defer ref.Close()
	for _, ent := range apps.All() {
		if ent.NeedsWeights && !want.Weighted {
			continue // the registry refuses it (apps.Entry.NeedsWeights)
		}
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

// assertRebuildLayouts checks that h serves the layouts a from-scratch
// core.BuildGraph of base ⊕ ops holds, byte for byte, and returns them.
func assertRebuildLayouts(t *testing.T, h *Handle, base *graph.Graph, ops []graph.EdgeOp, label string) *core.Graph {
	t.Helper()
	want := core.BuildGraph(graph.ApplyEdgeOps(base, ops))
	got := h.Runner().Graph()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"N", got.N, want.N}, {"Edges", got.Edges, want.Edges}, {"Weighted", got.Weighted, want.Weighted},
		{"VSS", got.VSS, want.VSS}, {"VSD", got.VSD, want.VSD},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s: %s differs from a from-scratch BuildGraph", label, f.name)
		}
	}
	return want
}

// TestMaterializeArmsServeWhatRebuildServes drives one graph through both
// materialization arms — patch after a mutation, patch again on a patched
// predecessor and on one a compaction folded, rebuild after a reopen and
// after the predecessor was evicted — and holds each served version to the
// always-rebuild store's content and answers for all nine apps. The
// compaction itself keeps the version and its runner and materializes
// nothing.
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

	// A compaction changes where the bytes live, not what is served: the
	// version and its runner stay, and nothing is materialized.
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	hc := acquire(s)
	if hc.Version() != h.Version() || hc.Runner() != h.Runner() {
		t.Fatal("compaction replaced the version or its runner")
	}
	if got := arms(s); got != (MaterializeStats{Patch: 2}) {
		t.Fatalf("after compaction: %+v, want the two patches alone", got)
	}
	h.Close()
	hc.Close()
	mutate(s, 2)
	h = acquire(s)
	assertServesRebuild(t, h, base, ops, "patch over a compacted log")
	h.Close()
	if got := arms(s); got != (MaterializeStats{Patch: 3}) {
		t.Fatalf("after a mutation past the compaction: %+v, want 3 patches", got)
	}
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
	mutate(s, 3)
	h = acquire(s)
	defer h.Close()
	assertServesRebuild(t, h, base, ops, "rebuild after eviction")
	if got := arms(s); got != (MaterializeStats{Rebuild: 2}) {
		t.Fatalf("reopened store: %+v, want 2 rebuilds", got)
	}
}

// TestSnapshotsRebuildTheServedLayouts: every snapshot the store writes — at
// Add, Compact and Snapshot — holds its version's edges in CSR order, not in
// the order they arrived: byte for byte the file a Compressed-Sparse matrix
// of base ⊕ every batch so far writes, as is the edge list VSS.ToGraph
// decodes out of a served version. A store that evicts to, or reopens onto,
// any of them, with the log's batches replayed on top, must still serve what
// a from-scratch BuildGraph of the original base ⊕ every batch serves, for
// all nine apps. It runs on every corpus graph, as it is and weighted, and
// on a weighted T×1, where it holds the layouts and leaves the apps to the
// corpus (tc alone takes seconds a run there).
func TestSnapshotsRebuildTheServedLayouts(t *testing.T) {
	type base struct {
		name    string
		g       *graph.Graph
		runApps bool
	}
	bases := []base{{"T1/weighted", gen.AddUniformWeights(gen.Generate(gen.Twitter, 1), 3), false}}
	for _, c := range testgraph.Corpus() {
		bases = append(bases, base{c.Name + "/weighted", c.WithWeights(), true})
		if !c.G.Weighted {
			bases = append(bases, base{c.Name, c.G, true})
		}
	}
	for _, b := range bases {
		t.Run(b.name, func(t *testing.T) { assertSnapshotsRebuild(t, b.g, b.runApps) })
	}
}

// assertSnapshotsRebuild drives one base graph through the snapshots of
// TestSnapshotsRebuildTheServedLayouts.
func assertSnapshotsRebuild(t *testing.T, base *graph.Graph, runApps bool) {
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
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	var ops []graph.EdgeOp
	// writtenInCSROrder checks the bytes one writer streams of the current
	// version against a transient CSR's.
	writtenInCSROrder := func(label, path string) {
		t.Helper()
		want := filepath.Join(t.TempDir(), "csr")
		if err := csr.FromGraph(graph.ApplyEdgeOps(base, ops), false).WriteFile(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readBytes(t, path), readBytes(t, want)) {
			t.Fatalf("%s: not the file the CSR of base ⊕ %d ops writes", label, len(ops))
		}
	}
	writtenInCSROrder("the snapshot Add wrote", findSnapshot(t, dir, "g"))
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
		if runApps {
			assertServesRebuild(t, h, base, ops, label)
		} else {
			assertRebuildLayouts(t, h, base, ops, label)
		}
		decoded := filepath.Join(t.TempDir(), "decoded")
		if err := h.Runner().Graph().VSS.ToGraph().WriteFile(decoded); err != nil {
			t.Fatal(err)
		}
		writtenInCSROrder(label+": VSS's edge list", decoded)
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
	writtenInCSROrder("the compacted snapshot", findSnapshot(t, dir, "g"))
	mutate(1)
	evictAll(t, s)
	check("the compacted snapshot and one batch")
	mutate(2)
	if err := s.Snapshot("g"); err != nil {
		t.Fatal(err)
	}
	writtenInCSROrder("the Snapshot file", findSnapshot(t, dir, "g"))
	reopen()
	check("the Snapshot file, its batches replayed again")
	mutate(3)
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	writtenInCSROrder("the second compacted snapshot", findSnapshot(t, dir, "g"))
	reopen()
	check("the compacted snapshot alone")
	if got := s.Stats().Materialize; got != (MaterializeStats{Rebuild: 1}) {
		t.Fatalf("reopened store: %+v, want one rebuild", got)
	}
}

// readBytes returns the named file's contents.
func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMaterializeSplicesOnlyNewBatches: a version whose predecessor's
// layouts are in memory applies only the batches since that predecessor, so
// every slab no later batch touches is the predecessor's own memory — the
// earlier batches, already in the seed, are not spliced in again. Each
// version serves what a rebuild of base ⊕ every batch so far serves.
func TestMaterializeSplicesOnlyNewBatches(t *testing.T) {
	s, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := gen.RMAT(10, 6000, gen.DefaultRMAT, 4) // eight slabs a direction
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	var prev *core.Graph
	var ops []graph.EdgeOp
	for i, batch := range [][]graph.EdgeOp{
		{{Src: 3, Dst: 5}},       // slab 0 both ways
		{{Src: 1000, Dst: 1001}}, // slab 7 both ways
		{{Src: 500, Dst: 501}},   // slab 3 both ways
	} {
		mustApply(t, s, "g", batch)
		ops = append(ops, batch...)
		h, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("after batch %d", i+1)
		assertServesRebuild(t, h, base, ops, label)
		cg := h.Runner().Graph()
		if prev != nil {
			touched := int(batch[0].Src) >> vsparse.SlabShift
			for _, arr := range [][2]*vsparse.Array{{prev.VSS, cg.VSS}, {prev.VSD, cg.VSD}} {
				for k := range arr[1].Slabs {
					shared := unsafe.SliceData(arr[0].Slabs[k].Words) == unsafe.SliceData(arr[1].Slabs[k].Words)
					if shared == (k == touched) {
						t.Errorf("%s: slab %d shared %v, want %v", label, k, shared, k != touched)
					}
				}
			}
		}
		prev = cg
		h.Close()
	}
	if got := s.Stats().Materialize; got != (MaterializeStats{Patch: 3}) {
		t.Fatalf("%+v, want three patches", got)
	}
}

// TestMaterializeSeedOlderThanLogRebuilds: a cold successor whose seed
// holds a view the delta log has rotated past — the batches between the
// seed's view and the log's base live only in the snapshot — is rebuilt from
// the snapshot and the log's whole range, not patched from a seed that lacks
// them, and serves what a from-scratch rebuild of base ⊕ every batch serves.
func TestMaterializeSeedOlderThanLogRebuilds(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	first, second := mutOps(base, 0, true), mutOps(base, 1, true)
	mustApply(t, s, "g", first)
	mustApply(t, s, "g", second)
	s.mu.Lock()
	e := s.graphs["g"]
	s.mu.Unlock()
	if e.seed == nil || e.seedSeq != 0 || e.viewSeq != 2 {
		t.Fatalf("setup: seed %t at %d, view %d; want the base's layouts at 0 under view 2", e.seed != nil, e.seedSeq, e.viewSeq)
	}
	// Fold the first batch by hand: the snapshot takes it and the log keeps
	// only the second, past the seed's view.
	if err := writeSnapshot(e.snapshot, core.BuildGraph(graph.ApplyEdgeOps(base, first))); err != nil {
		t.Fatal(err)
	}
	if err := e.delta.rotate(1); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	assertServesRebuild(t, h, base, append(first, second...), "seed older than the log")
	if got := s.Stats().Materialize; got != (MaterializeStats{Rebuild: 1}) {
		t.Fatalf("%+v, want one rebuild", got)
	}
}

// TestAcquireParkedOnSupersededVersion: an Acquire parked on a cold
// version's load while a mutation supersedes that version and a Compact
// folds the successor — rotating the log past the parked version's view —
// serves the graph's current version, with its own version number, not the
// folded snapshot under the old one. The superseded view cannot be
// materialized any more: the rebuild arm refuses it.
func TestAcquireParkedOnSupersededVersion(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	first, second := mutOps(base, 0, true), mutOps(base, 1, true)
	mustApply(t, s, "g", first)
	s.mu.Lock()
	e := s.graphs["g"]
	s.mu.Unlock()
	if e.runner != nil || e.viewSeq != 1 {
		t.Fatalf("setup: version %d resident %t at view %d; want a cold version at view 1", e.version, e.runner != nil, e.viewSeq)
	}
	// Another loader holds the cold version's load; the Acquire parks on it.
	e.load.Lock()
	type acquired struct {
		h   *Handle
		err error
	}
	done := make(chan acquired, 1)
	go func() {
		h, err := s.Acquire("g")
		done <- acquired{h, err}
	}()
	for parked := false; !parked; {
		s.mu.Lock()
		parked = e.refs == 1
		s.mu.Unlock()
		runtime.Gosched()
	}
	_, current := mustApply(t, s, "g", second)
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	e.load.Unlock()
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	defer got.h.Close()
	if got.h.Version() != current {
		t.Fatalf("the parked Acquire got version %d, want the current %d", got.h.Version(), current)
	}
	assertServesRebuild(t, got.h, base, append(first, second...), "parked on a superseded version")
	e.load.Lock()
	defer e.load.Unlock()
	if _, err := s.materialize(e); err == nil {
		t.Fatal("materialize served a view older than the log's base")
	}
}

// TestMaterializePatchesWhateverTheShare: a version with its predecessor's
// layouts in hand is spliced out of them however much of the graph its
// batches rewrite — one batch naming every vertex, or a chain of unread
// batches over one seed that together name every vertex four times — and
// serves what a from-scratch rebuild serves, for all nine apps. On the 9×9
// mesh (288 edges) the touched groups plus each op's own slots come to 1.28
// of the predecessor's edge slots for the one batch and 2.1 for the chain.
func TestMaterializePatchesWhateverTheShare(t *testing.T) {
	base := corpusGraph(t, "weighted-mesh-9x9")
	n := uint32(base.NumVertices)
	ring := func(step uint32) []graph.EdgeOp {
		ops := make([]graph.EdgeOp, n)
		for v := range n {
			ops[v] = graph.EdgeOp{Src: v, Dst: (v + step) % n, Weight: float32(step)}
		}
		return ops
	}
	for _, tc := range []struct {
		name    string
		batches [][]graph.EdgeOp
	}{
		{"one batch naming every vertex", [][]graph.EdgeOp{ring(1)}},
		{"four unread batches over one seed", [][]graph.EdgeOp{ring(1), ring(2), ring(3), ring(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Add("g", core.BuildGraph(base)); err != nil {
				t.Fatal(err)
			}
			var ops []graph.EdgeOp
			for _, batch := range tc.batches {
				mustApply(t, s, "g", batch)
				ops = append(ops, batch...)
			}
			h, err := s.Acquire("g")
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			assertServesRebuild(t, h, base, ops, tc.name)
			if got := s.Stats().Materialize; got != (MaterializeStats{Patch: 1}) {
				t.Fatalf("%+v, want one patch", got)
			}
		})
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

// TestReleaseChargesMemos: a memo a query builds on a resident version after
// its layouts were charged — here pr's rank scale — is charged when the
// query's handle is released. The entry's memory_bytes and the store's
// bytes_resident then equal the version's MemoryBytes, and the seed charge a
// successor takes over is that figure too.
func TestReleaseChargesMemos(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	cg := h.Runner().Graph()
	layouts := cg.MemoryBytes()
	pagerank(t, h)
	h.Close()
	want := cg.MemoryBytes()
	if want <= layouts {
		t.Fatalf("pr built no memo: the version holds %d bytes before and after", want)
	}
	if got, st := s.List()[0].MemoryBytes, s.Stats(); got != want || st.BytesResident != want {
		t.Fatalf("after pr: memory_bytes %d, bytes_resident %d, want both %d (%d before pr)", got, st.BytesResident, want, layouts)
	}
	mustApply(t, s, "g", mutOps(base, 0, true))
	if st := s.Stats(); st.BytesSeeds != want || st.BytesResident != want {
		t.Fatalf("after a mutation: bytes_seeds %d, bytes_resident %d, want both %d", st.BytesSeeds, st.BytesResident, want)
	}
}

// TestPatchInheritsSeedMemos: a version patched out of a seed whose rank
// scales (and census degrees) its queries built inherits them, is charged
// them in its resident bytes from the moment it is materialized, and serves
// pr, ppr and wpr bit for bit what the same version materialized by the
// rebuild arm serves.
func TestPatchInheritsSeedMemos(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := testgraph.Skewed().G
	if err := s.Add("g", core.BuildGraph(base)); err != nil {
		t.Fatal(err)
	}
	ranks := []string{"pr", "ppr", "wpr"}
	serve := func(h *Handle, names ...string) map[string]core.Result {
		t.Helper()
		out := map[string]core.Result{}
		for _, name := range names {
			ent, err := apps.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			p := ent.Normalize(apps.Params{Iters: 6, Root: 1})
			prog, err := ent.New(h.Runner().Graph(), p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.RunCtx(context.Background(), h.Runner(), prog, ent.MaxIters(p), nil)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = res
		}
		return out
	}
	acquire := func() (*Handle, *core.Graph) {
		t.Helper()
		h, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		return h, h.Runner().Graph()
	}
	// memoBytes is what cg holds beyond its two layouts.
	memoBytes := func(cg *core.Graph) int64 { return cg.MemoryBytes() - cg.VSS.MemoryBytes() - cg.VSD.MemoryBytes() }
	charged := func() int64 { return s.List()[0].MemoryBytes }

	h, seed := acquire()
	serve(h, append(ranks, "bfs", "cc")...)
	h.Close()
	seedMemos := memoBytes(seed)
	if want := seed.RankScale(false).MemoryBytes() + seed.RankScale(true).MemoryBytes() + int64(seed.N)*4; seedMemos != want {
		t.Fatalf("seed holds %d memo bytes after pr, wpr, bfs and cc, want %d (both scales and the census degrees)", seedMemos, want)
	}
	ops := mutOps(base, 0, true)
	mustApply(t, s, "g", ops)

	h, patched := acquire()
	if got := s.Stats().Materialize; got != (MaterializeStats{Patch: 1}) {
		t.Fatalf("%+v, want one patch", got)
	}
	inherited := memoBytes(patched)
	if charged() != patched.MemoryBytes() {
		t.Fatalf("charged %d bytes, the patched version holds %d", charged(), patched.MemoryBytes())
	}
	if want := patched.RankScale(false).MemoryBytes() + patched.RankScale(true).MemoryBytes() + int64(patched.N)*4; inherited != want {
		t.Fatalf("patched version holds %d memo bytes at birth, want %d (inherited scales and degrees)", inherited, want)
	}
	onPatch := serve(h, ranks...)
	h.Close()

	evictAll(t, s)
	h, rebuilt := acquire()
	defer h.Close()
	if got := s.Stats().Materialize; got != (MaterializeStats{Patch: 1, Rebuild: 1}) {
		t.Fatalf("%+v, want a patch and a rebuild", got)
	}
	if rebuilt == patched || memoBytes(rebuilt) != 0 {
		t.Fatalf("rebuild arm reused the patched version or holds %d memo bytes", memoBytes(rebuilt))
	}
	for name, res := range serve(h, ranks...) {
		assertBitIdentical(t, res.Props, onPatch[name].Props, name)
		if res.Iterations != onPatch[name].Iterations {
			t.Fatalf("%s: %d iterations on the patch arm, %d on the rebuild arm", name, onPatch[name].Iterations, res.Iterations)
		}
	}
}
