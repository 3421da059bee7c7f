package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sched"
)

const prIters = 8

// pagerank runs a fixed-iteration PageRank on a handle and returns the
// property lanes. Every engine variant is deterministic at a fixed chunk
// structure, and every handle on the same graph version shares one runner,
// so repeated calls must be bit-identical regardless of concurrency.
func pagerank(t *testing.T, h *Handle) []uint64 {
	t.Helper()
	res, err := core.RunCtx(context.Background(), h.Runner(), apps.PageRankOn(h.Runner().Graph().RankScale(false)), prIters, nil)
	if err != nil {
		t.Fatalf("pagerank: %v", err)
	}
	return res.Props
}

func assertBitIdentical(t *testing.T, want, got []uint64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("%s: prop[%d] = %#x, want %#x", label, v, got[v], want[v])
		}
	}
}

// TestDeleteReplaceWhileQuerying is the store's acceptance test: 12
// concurrent queries keep running across a replace (Add over the same name)
// and a delete of the graph they hold handles on, finish bit-identical to a
// solo reference run, and the old version's memory is released only when the
// last handle closes.
func TestDeleteReplaceWhileQuerying(t *testing.T) {
	s, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g1 := gen.RMAT(9, 4000, gen.DefaultRMAT, 7)
	if err := s.Add("g", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}

	// Reference: one solo run on the same runner the handles will use.
	ref, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	want := pagerank(t, ref)
	ref.Close()

	oldBytes := s.Stats().BytesResident
	if oldBytes <= 0 {
		t.Fatalf("BytesResident = %d, want > 0", oldBytes)
	}

	// Pin the current version with 12 handles before mutating the registry.
	const n = 12
	handles := make([]*Handle, n)
	for i := range handles {
		if handles[i], err = s.Acquire("g"); err != nil {
			t.Fatal(err)
		}
	}

	results := make([][]uint64, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range handles {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = pagerank(t, handles[i])
		}(i)
	}
	close(start)

	// Replace the graph mid-flight, then delete the replacement too.
	g2 := gen.ErdosRenyi(200, 900, 3)
	if err := s.Add("g", core.BuildGraph(g2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("g"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	for i := range results {
		assertBitIdentical(t, want, results[i], "concurrent run")
	}

	// g2 was idle when deleted, so its memory is already gone, but the old
	// version is still pinned by all 12 handles.
	if got := s.Stats().BytesResident; got != oldBytes {
		t.Fatalf("BytesResident with open handles = %d, want %d", got, oldBytes)
	}
	for i := 0; i < n-1; i++ {
		handles[i].Close()
	}
	if got := s.Stats().BytesResident; got != oldBytes {
		t.Fatalf("BytesResident with one open handle = %d, want %d", got, oldBytes)
	}
	handles[n-1].Close()
	handles[n-1].Close() // Close is idempotent
	if got := s.Stats().BytesResident; got != 0 {
		t.Fatalf("BytesResident after last close = %d, want 0", got)
	}
	if _, err := s.Acquire("g"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Acquire after delete: %v, want ErrNotFound", err)
	}
}

// TestAdmissionTypedRejection drives the admission controller to its bounds
// and checks the typed overload error surfaces through the store.
func TestAdmissionTypedRejection(t *testing.T) {
	s, err := Open(Config{Workers: 2, MaxInFlight: 2, MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	rel1, err := s.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}

	queued := make(chan func(), 1)
	go func() {
		rel, err := s.Admit(ctx)
		if err != nil {
			t.Error(err)
			queued <- nil
			return
		}
		queued <- rel
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Queued != 1 {
		if time.Now().After(deadline) {
			t.Fatal("third Admit never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// In-flight full, queue full: the next caller is refused with the typed
	// error.
	_, err = s.Admit(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit = %v, want ErrOverloaded", err)
	}
	var oe *sched.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("Admit error %T, want *sched.OverloadedError", err)
	}
	if oe.MaxInFlight != 2 || oe.MaxQueue != 1 {
		t.Fatalf("OverloadedError = %+v, want bounds 2/1", oe)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	rel1()
	rel3 := <-queued
	if rel3 == nil {
		t.Fatal("queued Admit failed")
	}
	rel2()
	rel3()
	if st := s.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("drained stats = %+v, want zero occupancy", st)
	}
}

// TestSnapshotRehydrateAcrossReopen persists graphs, reopens the store from
// the same data directory, and checks queries on the rehydrated snapshots are
// bit-identical to the original run.
func TestSnapshotRehydrateAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 11)

	s1, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Add("pr", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	h, err := s1.Acquire("pr")
	if err != nil {
		t.Fatal(err)
	}
	want := pagerank(t, h)
	h.Close()
	s1.Close()

	if snap := findSnapshot(t, dir, "pr"); snap == "" {
		t.Fatal("snapshot file missing after Add")
	}

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	infos := s2.List()
	if len(infos) != 1 || infos[0].Name != "pr" || infos[0].Resident || !infos[0].Snapshotted {
		t.Fatalf("List after reopen = %+v, want one cold snapshotted graph", infos)
	}
	if infos[0].Vertices != g.NumVertices || infos[0].Edges != g.NumEdges() {
		t.Fatalf("cold metadata = %d/%d, want %d/%d",
			infos[0].Vertices, infos[0].Edges, g.NumVertices, g.NumEdges())
	}

	// Concurrent cold Acquires must single-flight the rehydration and all
	// land on the same runner.
	const n = 4
	hs := make([]*Handle, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hs[i], errs[i] = s2.Acquire("pr")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cold Acquire %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if hs[i].Runner() != hs[0].Runner() {
			t.Fatal("concurrent cold Acquires built distinct runners")
		}
	}
	got := pagerank(t, hs[0])
	assertBitIdentical(t, want, got, "rehydrated run")
	for _, h := range hs {
		h.Close()
	}

	if err := s2.Delete("pr"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "pr"+snapshotExt)); !os.IsNotExist(err) {
		t.Fatalf("snapshot after delete: %v, want not-exist", err)
	}
	m, err := loadManifest(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Graphs) != 0 {
		t.Fatalf("manifest after delete has %d graphs, want 0", len(m.Graphs))
	}
}

// TestLRUEvictionUnderBudget loads two graphs under a budget that fits only
// one: the least-recently-used idle graph must be evicted to cold and
// rehydrate transparently on the next Acquire.
func TestLRUEvictionUnderBudget(t *testing.T) {
	g1 := gen.RMAT(8, 2000, gen.DefaultRMAT, 5)
	g2 := gen.RMAT(8, 2000, gen.DefaultRMAT, 6)

	// Measure one graph's resident footprint with a throwaway store.
	probe, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Add("a", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().BytesResident
	probe.Close()

	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2, MemBudget: one + one/2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add("a", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}
	ha, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	wantA := pagerank(t, ha)
	ha.Close()

	if err := s.Add("b", core.BuildGraph(g2)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("Stats = %+v, want at least one eviction", st)
	}
	if st.BytesResident > st.MemBudget {
		t.Fatalf("BytesResident %d exceeds budget %d with evictable entries", st.BytesResident, st.MemBudget)
	}
	if st.Graphs != 2 || st.Resident != 1 {
		t.Fatalf("Stats = %+v, want 2 graphs / 1 resident", st)
	}

	// "a" went cold (it was idle and least recently used); Acquire brings it
	// back with identical results.
	ha, err = s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ha.Close()
	assertBitIdentical(t, wantA, pagerank(t, ha), "post-eviction run")
}

// TestPinnedEntriesSurviveBudget checks entries with open handles are never
// evicted even when over budget.
func TestPinnedEntriesSurviveBudget(t *testing.T) {
	g1 := gen.ErdosRenyi(300, 1500, 1)
	g2 := gen.ErdosRenyi(300, 1500, 2)
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2, MemBudget: 1}) // absurdly small
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add("a", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}
	ha, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add("b", core.BuildGraph(g2)); err != nil {
		t.Fatal(err)
	}
	// "b" is idle, so it was evicted immediately; "a" is pinned and stays.
	for _, info := range s.List() {
		switch info.Name {
		case "a":
			if !info.Resident {
				t.Fatal("pinned graph was evicted")
			}
		case "b":
			if info.Resident {
				t.Fatal("idle graph survived a 1-byte budget")
			}
		}
	}
	assertBitIdentical(t, pagerank(t, ha), pagerank(t, ha), "pinned runs")
	ha.Close()
}

// TestNameValidation rejects path-hostile names before they reach the
// filesystem.
func TestNameValidation(t *testing.T) {
	s, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(10, 20, 1)
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a b", "a\x00b", "../etc"} {
		if err := s.Add(bad, core.BuildGraph(g)); err == nil {
			t.Errorf("Add(%q) accepted, want error", bad)
		}
	}
	for _, good := range []string{"a", "web-2026.05", "A_b.c-d", "0"} {
		if !ValidName(good) {
			t.Errorf("ValidName(%q) = false, want true", good)
		}
	}
}

// TestClosedStore checks every entry point fails cleanly after Close.
func TestClosedStore(t *testing.T) {
	s, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(10, 20, 1)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if err := s.Add("h", core.BuildGraph(g)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after close: %v, want ErrClosed", err)
	}
	if _, err := s.Acquire("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after close: %v, want ErrClosed", err)
	}
	if err := s.Delete("g"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after close: %v, want ErrClosed", err)
	}
}
