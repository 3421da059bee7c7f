package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// mutOps is a deterministic mixed batch of inserts and deletes derived from
// the base graph: delete some existing edges, re-weight others, and insert
// fresh ones (including vertex growth when grow is set).
func mutOps(g *graph.Graph, round int, grow bool) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, 0, 24)
	for i := 0; i < 8; i++ {
		e := g.Edges[(i*37+round*11)%len(g.Edges)]
		ops = append(ops, graph.EdgeOp{Delete: true, Src: e.Src, Dst: e.Dst})
	}
	n := uint32(g.NumVertices)
	for i := uint32(0); i < 12; i++ {
		src := (i*13 + uint32(round)*7) % n
		dst := (i*29 + uint32(round)*3 + 1) % n
		ops = append(ops, graph.EdgeOp{Src: src, Dst: dst})
	}
	if grow {
		ops = append(ops, graph.EdgeOp{Src: n + uint32(round), Dst: uint32(round) % n})
	}
	return ops
}

func mustApply(t *testing.T, s *Store, name string, ops []graph.EdgeOp) (seq, version uint64) {
	t.Helper()
	seq, version, err := s.ApplyEdges(name, ops)
	if err != nil {
		t.Fatalf("ApplyEdges: %v", err)
	}
	return seq, version
}

// TestApplyEdgesVisibleAndDurable: mutations become visible to new
// acquisitions under a bumped version, retire the predecessor with reason
// mutate, and survive a store reopen bit-identically.
func TestApplyEdgesVisibleAndDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	reasons := map[RetireReason]int{}
	s.OnRetireReason(func(_ string, _ uint64, r RetireReason) {
		mu.Lock()
		reasons[r]++
		mu.Unlock()
	})
	g := gen.ErdosRenyi(400, 2400, 3)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	v0, _ := s.Version("g")
	base := pagerankSolo(t, s, "g")

	for round := 0; round < 3; round++ {
		mustApply(t, s, "g", mutOps(g, round, true))
	}
	v1, _ := s.Version("g")
	if v1 <= v0 {
		t.Fatalf("version after mutations = %d, want > %d", v1, v0)
	}
	mu.Lock()
	if reasons[RetireMutate] == 0 {
		t.Fatal("no mutate retirements observed")
	}
	mu.Unlock()

	want := pagerankSolo(t, s, "g")
	if len(want) == len(base) {
		// The vertex set grew, so lengths differ; nothing to compare — but
		// guard against the mutations having been silently dropped.
		t.Fatalf("mutated view has %d vertices, want growth beyond %d", len(want), len(base))
	}
	var info GraphInfo
	for _, gi := range s.List() {
		if gi.Name == "g" {
			info = gi
		}
	}
	if info.DeltaBatches != 3 || info.DeltaBytes == 0 {
		t.Fatalf("List delta tail = %d batches / %d bytes, want 3 / >0", info.DeltaBatches, info.DeltaBytes)
	}
	if st := s.Stats(); st.WAL.Appends != 3 || st.WAL.TailBatches != 3 {
		t.Fatalf("Stats.WAL = %+v, want 3 appends in tail", st.WAL)
	}
	s.Close()

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.WAL.ReplayedBatches != 3 {
		t.Fatalf("ReplayedBatches after reopen = %d, want 3", st.WAL.ReplayedBatches)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "replayed view")
}

// TestApplyEdgesDeterminismMatrix: the merged overlay view is bit-identical
// at every worker count — the engine sees one canonical merged
// graph, so its existing determinism carries over to overlay serving.
// ChunkVectors is pinned for the same reason as the core determinism suite:
// the default chunk size derives from the worker count, and cross-count
// bit-identity is only promised for an identical chunk layout.
func TestApplyEdgesDeterminismMatrix(t *testing.T) {
	g := gen.RMAT(9, 4000, gen.DefaultRMAT, 21)
	var want []uint64
	for _, workers := range []int{1, 2, 4} {
		s, err := Open(Config{Workers: workers, Engine: core.Options{ChunkVectors: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add("g", core.BuildGraph(g)); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			mustApply(t, s, "g", mutOps(g, round, true))
		}
		got := pagerankSolo(t, s, "g")
		s.Close()
		if want == nil {
			want = got
			continue
		}
		assertBitIdentical(t, want, got, fmt.Sprintf("workers=%d", workers))
	}
}

// TestConcurrentReadBurstDuringWrites: a 16-wide read burst racing active
// writers stays deterministic — every read pins some version, repeated runs
// on one handle are bit-identical, and any two reads that pinned the same
// version agree exactly.
func TestConcurrentReadBurstDuringWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1800, 9)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := s.ApplyEdges("g", mutOps(g, round, false)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	var byVersion sync.Map // version -> []uint64
	var readers sync.WaitGroup
	for r := 0; r < 16; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 3; i++ {
				h, err := s.Acquire("g")
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				first := pagerank(t, h)
				second := pagerank(t, h)
				assertBitIdentical(t, first, second, "same-handle rerun")
				if prev, loaded := byVersion.LoadOrStore(h.Version(), first); loaded {
					assertBitIdentical(t, prev.([]uint64), first,
						fmt.Sprintf("version %d cross-reader", h.Version()))
				}
				h.Close()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestCompactFoldsOverlay: a fold keeps the version. Compact folds the tail
// into the snapshot and truncates the log, and Snapshot rewrites the
// snapshot; across each of them the version, the runner a held handle pins
// and the materialization counts stay as they were, nothing retires, and the
// served bits are unchanged. A reopen after them replays nothing.
func TestCompactFoldsOverlay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(400, 2400, 11)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		mustApply(t, s, "g", mutOps(g, round, true))
	}
	var retired atomic.Int32
	s.OnRetireReason(func(string, uint64, RetireReason) { retired.Add(1) })
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	want := pagerank(t, h)
	arms := s.Stats().Materialize

	for _, fold := range []struct {
		name string
		run  func(string) error
	}{{"Compact", s.Compact}, {"Snapshot", s.Snapshot}} {
		if err := fold.run("g"); err != nil {
			t.Fatalf("%s: %v", fold.name, err)
		}
		cur, err := s.Acquire("g")
		if err != nil {
			t.Fatal(err)
		}
		if cur.Version() != h.Version() || cur.Runner() != h.Runner() {
			t.Fatalf("%s: version %d → %d, same runner %t", fold.name, h.Version(), cur.Version(), cur.Runner() == h.Runner())
		}
		cur.Close()
		if n := retired.Load(); n != 0 {
			t.Fatalf("%s retired %d versions, want none", fold.name, n)
		}
		if got := s.Stats().Materialize; got != arms {
			t.Fatalf("%s: materialize %+v, want %+v", fold.name, got, arms)
		}
	}
	h.Close()
	st := s.Stats()
	if st.WAL.TailBatches != 0 || st.WAL.Compactions != 1 || st.WAL.Rotations == 0 {
		t.Fatalf("post-compaction WAL stats = %+v", st.WAL)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s, "g"), "post-compaction view")
	s.Close()

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.WAL.ReplayedBatches != 0 {
		t.Fatalf("replayed %d batches after compaction, want 0", st.WAL.ReplayedBatches)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "compacted reopen")
}

// TestCompactOneOwnerPerGraph: explicit Compact calls racing each other, the
// size-triggered background compactor and a snapshot request must never
// share the snapshot's temp file — every call succeeds, and both the live
// view and a reopen serve exactly the acknowledged batches.
func TestCompactOneOwnerPerGraph(t *testing.T) {
	dir := t.TempDir()
	// CompactAfter of one byte nudges the background compactor on every
	// batch, so it folds alongside the explicit callers below.
	s, err := Open(Config{DataDir: dir, Workers: 2, CompactAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(300, 1500, 31)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		mustApply(t, s, "g", mutOps(g, round, true))
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(snapshot bool) {
				defer wg.Done()
				var err error
				if snapshot {
					err = s.Snapshot("g")
				} else {
					err = s.Compact("g")
				}
				if err != nil {
					t.Errorf("concurrent fold: %v", err)
				}
			}(i == 2)
		}
	}
	wg.Wait()
	if err := s.Compact("g"); err != nil {
		t.Fatalf("final Compact: %v", err)
	}
	if st := s.Stats(); st.WAL.TailBatches != 0 || st.WAL.CompactErrors != 0 {
		t.Fatalf("post-compaction WAL stats = %+v", st.WAL)
	}
	got := pagerankSolo(t, s, "g")
	s.Close()

	// The reference: the same batches applied to a store that never folds.
	ref, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		mustApply(t, ref, "g", mutOps(g, round, true))
	}
	want := pagerankSolo(t, ref, "g")
	assertBitIdentical(t, want, got, "view after racing folds")

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "reopen after racing folds")
}

// TestBackgroundCompactorRetriesFailures: with the store/compact failpoint
// failing twice, the size-triggered background compactor retries with
// backoff and lands the fold without intervention, keeping the version.
func TestBackgroundCompactorRetriesFailures(t *testing.T) {
	defer fault.Reset()
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2, CompactAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 13)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableFromSpec("store/compact=error*2"); err != nil {
		t.Fatal(err)
	}
	_, version := mustApply(t, s, "g", mutOps(g, 0, false))

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.WAL.Compactions >= 1 && st.WAL.TailBatches == 0 {
			if st.WAL.CompactErrors != 2 {
				t.Fatalf("CompactErrors = %d, want 2", st.WAL.CompactErrors)
			}
			// The fold kept the version the batch published.
			if v, err := s.Version("g"); err != nil || v != version {
				t.Fatalf("version %d (%v) after the background fold, want %d", v, err, version)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor never landed: %+v", st.WAL)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryTornTailAndFailedCompaction is the acceptance-criteria
// crash test: a torn WAL tail (crash mid-append of an unacknowledged batch)
// plus a compaction forced to fail must still reopen to a bit-identical view
// of every acknowledged batch.
func TestCrashRecoveryTornTailAndFailedCompaction(t *testing.T) {
	defer fault.Reset()
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(400, 2400, 17)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		mustApply(t, s, "g", mutOps(g, round, true))
	}
	want := pagerankSolo(t, s, "g")
	s.Close()

	// Crash simulation: a torn half-record at the log's tail, exactly what a
	// kill mid-write leaves. The torn bytes are an unacknowledged fourth
	// batch and must not surface.
	wal := dir + "/" + walFileName("g")
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := graph.AppendDeltaRecord(nil, 4, []graph.EdgeOp{{Src: 1, Dst: 2}})
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen with compaction wedged: recovery must not depend on folding.
	if err := fault.EnableFromSpec("store/compact=error"); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("reopen over torn tail = %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.WAL.TornTails != 1 || st.WAL.ReplayedBatches != 3 {
		t.Fatalf("recovery stats = %+v, want 1 torn tail, 3 replayed", st.WAL)
	}
	if err := s2.Ready(); err != nil {
		t.Fatalf("Ready after recovery = %v, want nil", err)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "acked view after torn-tail recovery")
	if err := s2.Compact("g"); err == nil {
		t.Fatal("Compact with failpoint armed returned nil")
	}
	// Failed compaction changes nothing served.
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "view after failed compaction")
}

// TestCorruptWALSegmentQuarantinedNotFatal: a flipped bit inside an
// acknowledged record quarantines the segment at reopen, keeps the legible
// prefix serving, and leaves the store ready.
func TestCorruptWALSegmentQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(400, 2400, 19)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g, 0, false))
	prefixView := pagerankSolo(t, s, "g")
	mustApply(t, s, "g", mutOps(g, 1, false))
	s.Close()

	wal := dir + "/" + walFileName("g")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01 // damage the second (complete) record
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("reopen over corrupt WAL = %v", err)
	}
	defer s2.Close()
	if err := s2.Ready(); err != nil {
		t.Fatalf("Ready = %v, want nil (quarantine is not fatal)", err)
	}
	st := s2.Stats()
	if st.WAL.QuarantinedSegments != 1 || st.WAL.ReplayedBatches != 1 {
		t.Fatalf("recovery stats = %+v, want 1 quarantined, 1 replayed", st.WAL)
	}
	if _, err := os.Stat(wal + QuarantineExt); err != nil {
		t.Fatalf("quarantined WAL missing: %v", err)
	}
	assertBitIdentical(t, prefixView, pagerankSolo(t, s2, "g"), "legible-prefix view")
}

// TestApplyEdgesBudgetBackpressure: past DeltaBudget writes get a typed
// *DeltaBudgetError while reads keep serving; compaction reopens the gate.
func TestApplyEdgesBudgetBackpressure(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2, DeltaBudget: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 23)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g, 0, false)) // 20 ops = 276 encoded bytes
	want := pagerankSolo(t, s, "g")

	var be *DeltaBudgetError
	if _, _, err := s.ApplyEdges("g", mutOps(g, 1, false)); !errors.As(err, &be) {
		t.Fatalf("over-budget ApplyEdges = %v, want *DeltaBudgetError", err)
	}
	if be.Budget != 300 || be.Pending == 0 {
		t.Fatalf("budget error detail = %+v", be)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s, "g"), "reads during backpressure")

	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g, 1, false))
}

// TestWALWedgedRefusesWritesServesReads walks the degradation ladder: a
// wedged log refuses writes with a typed error and flips readiness, reads
// keep serving the last good version, and a successful heal restores all of
// it.
func TestWALWedgedRefusesWritesServesReads(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 29)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g, 0, false))
	want := pagerankSolo(t, s, "g")

	s.mu.Lock()
	delta := s.graphs["g"].delta
	s.mu.Unlock()
	delta.mu.Lock()
	delta.wedged = true
	delta.wedgedFlag.Store(1)
	delta.healNotAfter = time.Now().Add(time.Hour) // pin the heal backoff
	delta.mu.Unlock()

	var we *WALWedgedError
	if _, _, err := s.ApplyEdges("g", mutOps(g, 1, false)); !errors.As(err, &we) {
		t.Fatalf("wedged ApplyEdges = %v, want *WALWedgedError", err)
	}
	if err := s.Ready(); err == nil {
		t.Fatal("Ready = nil with a wedged WAL, want degraded")
	}
	if st := s.Stats(); st.WAL.Wedged != 1 {
		t.Fatalf("Stats.WAL.Wedged = %d, want 1", st.WAL.Wedged)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s, "g"), "reads while wedged")

	delta.mu.Lock()
	delta.healNotAfter = time.Time{}
	delta.mu.Unlock()
	mustApply(t, s, "g", mutOps(g, 1, false)) // heals inline, then appends
	if err := s.Ready(); err != nil {
		t.Fatalf("Ready after heal = %v, want nil", err)
	}
	if st := s.Stats(); st.WAL.Healed != 1 || st.WAL.Wedged != 0 {
		t.Fatalf("post-heal WAL stats = %+v", st.WAL)
	}
}

// TestReplaceSupersedesMutations: Add-replace mints a new lineage — prior
// mutations neither survive in the view nor resurface across a reopen.
func TestReplaceSupersedesMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g1 := gen.ErdosRenyi(300, 1500, 31)
	g2 := gen.ErdosRenyi(300, 1700, 37)
	if err := s.Add("g", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g1, 0, true))
	if err := s.Add("g", core.BuildGraph(g2)); err != nil {
		t.Fatal(err)
	}
	want := pagerankSolo(t, s, "g")
	s.Close()

	ref, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Add("g", core.BuildGraph(g2)); err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, want, pagerankSolo(t, ref, "g"), "replacement vs pristine g2")
	ref.Close()

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.WAL.ReplayedBatches != 0 {
		t.Fatalf("stale-lineage batches replayed: %+v", st.WAL)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "replacement after reopen")
}

// TestMutateMemoryOnlyStore: without a data directory the same mutation and
// compaction semantics hold, minus durability.
func TestMutateMemoryOnlyStore(t *testing.T) {
	s, err := Open(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 41)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		mustApply(t, s, "g", mutOps(g, round, true))
	}
	want := pagerankSolo(t, s, "g")
	if err := s.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WAL.TailBatches != 0 || st.WAL.Fsyncs != 0 {
		t.Fatalf("memory-only WAL stats = %+v", st.WAL)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s, "g"), "memory-only post-compaction")
}

// TestOnRetireShimAndReasons: OnRetireReason distinguishes the three causes
// of a retirement, each fired exactly once; a compaction between them fires
// nothing.
func TestOnRetireShimAndReasons(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	reasons := map[RetireReason]int{}
	s.OnRetireReason(func(_ string, _ uint64, r RetireReason) {
		mu.Lock()
		reasons[r]++
		mu.Unlock()
	})

	g := gen.ErdosRenyi(200, 900, 43)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("g", core.BuildGraph(g)); err != nil { // replace
		t.Fatal(err)
	}
	mustApply(t, s, "g", mutOps(g, 0, false)) // mutate
	if err := s.Compact("g"); err != nil {    // no retirement
		t.Fatal(err)
	}
	if err := s.Delete("g"); err != nil { // delete
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reasons) != 3 {
		t.Errorf("reasons fired: %v, want replace, mutate and delete once each", reasons)
	}
	for _, r := range []RetireReason{RetireReplace, RetireMutate, RetireDelete} {
		if reasons[r] != 1 {
			t.Errorf("reason %q fired %d times, want 1", r, reasons[r])
		}
	}
}
