package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

// evictAll forces every idle entry cold so the next Acquire rehydrates.
func evictAll(t *testing.T, s *Store) {
	t.Helper()
	s.mu.Lock()
	for _, e := range s.graphs {
		if e.refs == 0 && e.runner != nil && e.snapshot != "" {
			s.freeLocked(e)
		}
	}
	s.mu.Unlock()
}

// TestRehydrateRetriesTransientError: two injected transient failures, then
// success — Acquire must come back healthy, the retry counter must show the
// two retries, and Ready must stay nil throughout.
func TestRehydrateRetriesTransientError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 4)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	want := pagerankSolo(t, s, "g")
	evictAll(t, s)

	disarm, err := fault.Enable("store/rehydrate", "error:transient io*2")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire after transient faults = %v, want success via retries", err)
	}
	got := pagerank(t, h)
	h.Close()
	assertBitIdentical(t, want, got, "post-retry run")
	if st := s.Stats(); st.RehydrateRetries != 2 {
		t.Errorf("RehydrateRetries = %d, want 2", st.RehydrateRetries)
	}
	if err := s.Ready(); err != nil {
		t.Errorf("Ready = %v after successful retry, want nil", err)
	}
}

// pagerankSolo acquires, runs, closes.
func pagerankSolo(t *testing.T, s *Store, name string) []uint64 {
	t.Helper()
	h, err := s.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	return pagerank(t, h)
}

// TestRehydrateExhaustedReportsDegraded: a transient failure on every
// attempt turns into a typed *RehydrateError, and enough consecutive failures
// flip Ready to degraded; a later success heals it.
func TestRehydrateExhaustedReportsDegraded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(200, 900, 5)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	evictAll(t, s)

	for i := 0; i < wedgedThreshold; i++ {
		// One shot per attempt: exactly enough to exhaust this Acquire's
		// retries.
		disarm, err := fault.Enable("store/rehydrate", fmt.Sprintf("error:disk on fire*%d", rehydrateAttempts))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Acquire("g")
		disarm()
		var re *RehydrateError
		if !errors.As(err, &re) {
			t.Fatalf("Acquire %d = %v, want *RehydrateError", i, err)
		}
		if re.Attempts != rehydrateAttempts {
			t.Errorf("RehydrateError.Attempts = %d, want %d", re.Attempts, rehydrateAttempts)
		}
	}
	if err := s.Ready(); err == nil {
		t.Fatalf("Ready = nil after %d consecutive rehydrate failures, want degraded", wedgedThreshold)
	}

	// The failure was transient, not sticky: the next Acquire succeeds and
	// readiness recovers.
	h, err := s.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire after disarm = %v", err)
	}
	h.Close()
	if err := s.Ready(); err != nil {
		t.Errorf("Ready = %v after recovery, want nil", err)
	}
}

// TestCorruptSnapshotQuarantinedAndHealed: a snapshot damaged on disk is
// quarantined (moved to *.quarantined, dropped from the manifest), Acquire
// returns a sticky typed error without re-reading the file, the store stays
// up, and re-Adding the graph heals it.
func TestCorruptSnapshotQuarantinedAndHealed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := gen.ErdosRenyi(300, 1500, 6)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	want := pagerankSolo(t, s, "g")
	evictAll(t, s)

	// Flip bytes in the middle of the snapshot: the header stays plausible,
	// so corruption surfaces as a truncation/validation failure.
	snap := findSnapshot(t, dir, "g")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = s.Acquire("g")
	var ce *CorruptSnapshotError
	if !errors.As(err, &ce) {
		t.Fatalf("Acquire = %v, want *CorruptSnapshotError", err)
	}
	if !errors.Is(err, graph.ErrCorrupt) {
		t.Error("CorruptSnapshotError does not match graph.ErrCorrupt")
	}
	if !strings.HasSuffix(ce.Path, QuarantineExt) {
		t.Errorf("quarantine path = %q, want %s suffix", ce.Path, QuarantineExt)
	}
	if _, err := os.Stat(ce.Path); err != nil {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("corrupt snapshot still at original path (err=%v)", err)
	}

	// Sticky: the second Acquire fails identically (and must not panic on a
	// missing file).
	if _, err := s.Acquire("g"); !errors.As(err, &ce) {
		t.Fatalf("second Acquire = %v, want sticky *CorruptSnapshotError", err)
	}
	var info GraphInfo
	for _, gi := range s.List() {
		if gi.Name == "g" {
			info = gi
		}
	}
	if !info.Quarantined || info.Resident || info.Snapshotted {
		t.Errorf("List entry = %+v, want quarantined, cold, unsnapshotted", info)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", st.Quarantined)
	}
	if err := s.Ready(); err != nil {
		t.Errorf("Ready = %v, want nil (quarantine is per-graph, not store-wide)", err)
	}

	// Re-adding the graph heals it end to end, including persistence.
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatalf("healing Add = %v", err)
	}
	evictAll(t, s)
	got := pagerankSolo(t, s, "g")
	assertBitIdentical(t, want, got, "healed graph")
}

// TestSnapshotWriteFailureKeepsPreviousVersion is the acceptance-criteria
// crash test: a snapshot write that dies mid-stream (torn temp file, no
// rename) must fail the Add, keep the previous version serving, and leave
// the store reopenable with the previous version intact.
func TestSnapshotWriteFailureKeepsPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g1 := gen.ErdosRenyi(300, 1500, 7)
	if err := s.Add("g", core.BuildGraph(g1)); err != nil {
		t.Fatal(err)
	}
	want := pagerankSolo(t, s, "g")

	disarm, err := fault.Enable("store/snapshot-write", "error:killed mid-write")
	if err != nil {
		t.Fatal(err)
	}
	g2 := gen.ErdosRenyi(400, 2000, 8)
	if err := s.Add("g", core.BuildGraph(g2)); err == nil {
		t.Fatal("Add with dying snapshot write returned nil error")
	}
	disarm()

	// The previous version still serves in this process...
	assertBitIdentical(t, want, pagerankSolo(t, s, "g"), "previous version after failed Add")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and across a reopen: the manifest still points at the old snapshot,
	// and the torn temp file is ignored.
	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("reopen after torn write = %v", err)
	}
	defer s2.Close()
	h, err := s2.Acquire("g")
	if err != nil {
		t.Fatalf("Acquire after reopen = %v", err)
	}
	if n := h.Runner().Graph().N; n != g1.NumVertices {
		t.Errorf("reopened graph has %d vertices, want previous version's %d", n, g1.NumVertices)
	}
	got := pagerank(t, h)
	h.Close()
	assertBitIdentical(t, want, got, "previous version after reopen")
}

// TestManifestWriteFailureSurfacesError: a failing manifest write errors the
// Add but the on-disk manifest keeps its previous consistent content.
func TestManifestWriteFailureSurfacesError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Add("a", core.BuildGraph(gen.ErdosRenyi(100, 400, 9))); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	disarm, err := fault.Enable("store/manifest-write", "error")
	if err != nil {
		t.Fatal(err)
	}
	addErr := s.Add("b", core.BuildGraph(gen.ErdosRenyi(100, 400, 10)))
	disarm()
	if addErr == nil {
		t.Fatal("Add with failing manifest write returned nil error")
	}
	after, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("manifest changed despite failed write")
	}
}

// TestCompactFaultAfterSnapshotSyncKeepsAckedPrefix pins the fold's order of
// durable steps: the snapshot is committed (file synced, renamed, directory
// synced) before the manifest is rewritten, and the delta log is rotated only
// after both. A fault between the snapshot's commit and the rotation — the
// manifest write fails — must leave the folded snapshot complete on disk
// under its final name, no temp file, the log un-rotated, and a store that
// reopens to exactly the acknowledged batches.
func TestCompactFaultAfterSnapshotSyncKeepsAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.ErdosRenyi(400, 2400, 19)
	if err := s.Add("g", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	var ops []graph.EdgeOp
	for round := 0; round < 3; round++ {
		batch := mutOps(g, round, true)
		mustApply(t, s, "g", batch)
		ops = append(ops, batch...)
	}
	want := pagerankSolo(t, s, "g")

	disarm, err := fault.Enable("store/manifest-write", "error:power cut")
	if err != nil {
		t.Fatal(err)
	}
	compactErr := s.Compact("g")
	disarm()
	if compactErr == nil {
		t.Fatal("Compact with a failing manifest write returned nil")
	}
	if st := s.Stats().WAL; st.Rotations != 0 || st.TailBatches != 3 {
		t.Fatalf("log rotated past a fold whose manifest never landed: %+v", st)
	}
	s.Close()

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot string
	for _, f := range files {
		switch {
		case strings.HasSuffix(f.Name(), ".tmp"):
			t.Errorf("temp file %s left behind", f.Name())
		case strings.HasSuffix(f.Name(), snapshotExt):
			snapshot = filepath.Join(dir, f.Name())
		}
	}
	folded, err := graph.ReadFile(snapshot)
	if err != nil {
		t.Fatalf("snapshot after the faulted fold: %v", err)
	}
	if !reflect.DeepEqual(core.BuildGraph(folded), core.BuildGraph(graph.ApplyEdgeOps(g, ops))) {
		t.Fatal("snapshot on disk does not rebuild the folded view's layouts")
	}

	s2, err := Open(Config{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("reopen after the faulted fold: %v", err)
	}
	defer s2.Close()
	if st := s2.Stats().WAL; st.ReplayedBatches != 3 {
		t.Fatalf("replayed %d batches, want the 3 acknowledged", st.ReplayedBatches)
	}
	assertBitIdentical(t, want, pagerankSolo(t, s2, "g"), "acknowledged prefix after faulted fold")
}
