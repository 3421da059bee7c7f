package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "g"+walExt)
}

// findSnapshot locates name's lineage-qualified snapshot file
// (name.<L>.grzg) in dir, returning "" when absent.
func findSnapshot(t *testing.T, dir, name string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, name+".*"+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 1 {
		t.Fatalf("multiple snapshots for %q: %v", name, matches)
	}
	if len(matches) == 1 {
		return matches[0]
	}
	return ""
}

func mustAppend(t *testing.T, l *deltaLog, ops ...graph.EdgeOp) uint64 {
	t.Helper()
	seq, err := l.append(ops)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

// recovery is what one open of a delta log added to its counters.
type recovery struct {
	Replayed    int
	TornTail    bool
	Quarantined bool
	NeedCompact bool
}

// openCounted opens graph "g"'s log at path and reports what the open
// counted in c.
func openCounted(path string, lineage uint64, c *walCounters) (*deltaLog, recovery, error) {
	replayed, torn, quarantined := c.replayed.Load(), c.tornTails.Load(), c.quarantined.Load()
	l, needCompact, err := openDeltaLog("g", path, lineage, c)
	return l, recovery{
		Replayed:    int(c.replayed.Load() - replayed),
		TornTail:    c.tornTails.Load() > torn,
		Quarantined: c.quarantined.Load() > quarantined,
		NeedCompact: needCompact,
	}, err
}

func TestDeltaLogAppendReopen(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, rec, err := openCounted(path, 7, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 || rec.TornTail || rec.Quarantined {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})
	mustAppend(t, l, graph.EdgeOp{Src: 1, Dst: 2}, graph.EdgeOp{Delete: true, Src: 0, Dst: 1})
	if got := l.ackedSeq(); got != 2 {
		t.Fatalf("ackedSeq = %d, want 2", got)
	}
	l.close(false)

	l2, rec2, err := openCounted(path, 7, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Replayed != 2 {
		t.Fatalf("replayed %d batches, want 2", rec2.Replayed)
	}
	ops := l2.opsThrough(2)
	if len(ops) != 3 {
		t.Fatalf("opsThrough(2) = %d ops, want 3", len(ops))
	}
	if ops[2].Delete != true || ops[2].Src != 0 || ops[2].Dst != 1 {
		t.Fatalf("last replayed op = %+v", ops[2])
	}
	if got := l2.opsThrough(1); len(got) != 1 {
		t.Fatalf("opsThrough(1) = %d ops, want 1", len(got))
	}
	l2.close(false)
}

func TestDeltaLogGroupCommitConcurrent(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustAppend(t, l, graph.EdgeOp{Src: uint32(i), Dst: uint32(i + 1)})
		}(i)
	}
	wg.Wait()
	if got := l.ackedSeq(); got != writers {
		t.Fatalf("ackedSeq = %d, want %d", got, writers)
	}
	if got := c.appends.Load(); got != writers {
		t.Fatalf("appends = %d, want %d", got, writers)
	}
	// Appends are serialized from write through fsync: each acknowledged
	// batch paid for exactly one sync of its own.
	if syncs := c.fsyncs.Load(); syncs != writers {
		t.Fatalf("fsyncs = %d for %d appends, want one each", syncs, writers)
	}
	l.close(false)

	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != writers {
		t.Fatalf("replayed %d, want %d", rec.Replayed, writers)
	}
	l2.close(false)
}

func TestDeltaLogFsyncFailureRollsBack(t *testing.T) {
	defer fault.Reset()
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})
	durable, _ := os.Stat(path)

	if err := fault.EnableFromSpec("store/wal-fsync=error*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.append([]graph.EdgeOp{{Src: 9, Dst: 9}}); err == nil {
		t.Fatal("append succeeded through a failed fsync")
	}
	// The rejected record must be gone from both the file and the tail.
	st, _ := os.Stat(path)
	if st.Size() != durable.Size() {
		t.Fatalf("file = %d bytes after rollback, want %d", st.Size(), durable.Size())
	}
	if ops := l.opsThrough(^uint64(0)); len(ops) != 1 {
		t.Fatalf("tail = %d ops after rollback, want 1", len(ops))
	}
	if c.fsyncErrors.Load() != 1 || c.appendErrors.Load() != 1 {
		t.Fatalf("counters = %d fsyncErrors, %d appendErrors", c.fsyncErrors.Load(), c.appendErrors.Load())
	}

	// The log stays usable: the next append reuses the rolled-back seq.
	if seq := mustAppend(t, l, graph.EdgeOp{Src: 2, Dst: 3}); seq != 2 {
		t.Fatalf("post-rollback seq = %d, want 2", seq)
	}
	l.close(false)

	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d, want 2", rec.Replayed)
	}
	ops := l2.opsThrough(^uint64(0))
	if len(ops) != 2 || ops[1].Src != 2 {
		t.Fatalf("replayed ops = %+v: unacknowledged batch leaked or acked batch lost", ops)
	}
	l2.close(false)
}

func TestDeltaLogTornTailTruncatedOnOpen(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})
	mustAppend(t, l, graph.EdgeOp{Src: 1, Dst: 2})
	l.close(false)

	// Tear mid-way through the second record, as a crash mid-write would.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail || rec.Replayed != 1 {
		t.Fatalf("recovery = %+v, want torn tail with 1 replayed", rec)
	}
	if got := c.tornTails.Load(); got != 1 {
		t.Fatalf("tornTails counter = %d", got)
	}
	// The file was truncated in place: appending must produce a clean log.
	if seq := mustAppend(t, l2, graph.EdgeOp{Src: 5, Dst: 6}); seq != 2 {
		t.Fatalf("post-truncation seq = %d, want 2", seq)
	}
	l2.close(false)
	if _, rec, err := openCounted(path, 1, &c); err != nil || rec.Replayed != 2 {
		t.Fatalf("reopen after repair: %v, %+v", err, rec)
	}
}

func TestDeltaLogCorruptSegmentQuarantined(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})
	mustAppend(t, l, graph.EdgeOp{Src: 1, Dst: 2})
	l.close(false)

	// Flip a payload bit inside the second record: CRC mismatch on a
	// complete record is corruption, not a torn tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatalf("corrupt log must not be fatal: %v", err)
	}
	if !rec.Quarantined || !rec.NeedCompact || rec.Replayed != 1 {
		t.Fatalf("recovery = %+v, want quarantined with 1 replayed", rec)
	}
	if _, err := os.Stat(path + QuarantineExt); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The surviving prefix was re-logged into a fresh durable file.
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("re-logged file missing: %v", err)
	}
	log, err := graph.DecodeDeltaLog(fresh)
	if err != nil || len(log.Batches) != 1 || log.Batches[0].Seq != 1 {
		t.Fatalf("re-logged contents: %v %+v", err, log.Batches)
	}
	if seq := mustAppend(t, l2, graph.EdgeOp{Src: 7, Dst: 8}); seq != 2 {
		t.Fatalf("post-quarantine seq = %d, want 2", seq)
	}
	l2.close(false)
}

func TestDeltaLogStaleLineageDiscarded(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})
	l.close(false)

	// Reopen under a new lineage, as after a whole-graph replace whose log
	// cleanup was lost to a crash: the old deltas must not replay.
	l2, rec, err := openCounted(path, 2, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 0 {
		t.Fatalf("stale-lineage log replayed %d batches", rec.Replayed)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale log still on disk: %v", err)
	}
	l2.close(false)
}

func TestDeltaLogRotateDropsCompacted(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, l, graph.EdgeOp{Src: uint32(i), Dst: uint32(i + 1)})
	}
	if err := l.rotate(3); err != nil {
		t.Fatal(err)
	}
	if ops := l.opsThrough(^uint64(0)); len(ops) != 1 || ops[0].Src != 3 {
		t.Fatalf("post-rotate tail = %+v, want just the seq-4 op", ops)
	}
	if got := l.tailBatches.Load(); got != 1 {
		t.Fatalf("tailBatches gauge = %d, want 1", got)
	}
	// New appends continue the sequence and survive reopen.
	if seq := mustAppend(t, l, graph.EdgeOp{Src: 9, Dst: 9}); seq != 5 {
		t.Fatalf("post-rotate seq = %d, want 5", seq)
	}
	l.close(false)

	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed %d after rotate, want 2", rec.Replayed)
	}
	ops := l2.opsThrough(^uint64(0))
	if len(ops) != 2 || ops[0].Src != 3 || ops[1].Src != 9 {
		t.Fatalf("reopened tail = %+v", ops)
	}
	l2.close(false)
}

func TestDeltaLogWedgeHeals(t *testing.T) {
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1})

	// Force the wedged state directly (reaching it for real requires a
	// truncate failure after a failed fsync, which the OS won't cooperate
	// with in a test). Heal must rewrite from the acknowledged tail.
	l.mu.Lock()
	l.wedged = true
	l.wedgedFlag.Store(1)
	l.mu.Unlock()

	if seq := mustAppend(t, l, graph.EdgeOp{Src: 1, Dst: 2}); seq != 2 {
		t.Fatalf("post-heal seq = %d, want 2", seq)
	}
	if l.wedgedFlag.Load() != 0 {
		t.Fatal("log still marked wedged after successful heal")
	}
	if c.healed.Load() == 0 {
		t.Fatal("healed counter not bumped")
	}
	l.close(false)

	if _, rec, err := openCounted(path, 1, &c); err != nil || rec.Replayed != 2 {
		t.Fatalf("reopen after heal: %v, %+v", err, rec)
	}
}

func TestDeltaLogWedgeBacksOff(t *testing.T) {
	// A wedged log whose heal keeps failing must refuse appends with a
	// WALWedgedError and back off rather than hammering the disk.
	l := newDeltaLog("g", filepath.Join(t.TempDir(), "missing-dir", "g"+walExt), 1, &walCounters{})
	l.mu.Lock()
	l.wedged = true
	l.wedgedFlag.Store(1)
	l.mu.Unlock()

	var wedged *WALWedgedError
	_, err := l.append([]graph.EdgeOp{{Src: 0, Dst: 1}})
	if !errors.As(err, &wedged) {
		t.Fatalf("err = %v, want WALWedgedError", err)
	}
	// Immediately retrying lands inside the backoff window.
	_, err = l.append([]graph.EdgeOp{{Src: 0, Dst: 1}})
	if !errors.As(err, &wedged) {
		t.Fatalf("backoff err = %v, want WALWedgedError", err)
	}
	if l.wedgedFlag.Load() != 1 {
		t.Fatal("failed heal cleared the wedged flag")
	}
}

func TestDeltaLogMemoryOnly(t *testing.T) {
	var c walCounters
	l, _, err := openDeltaLog("g", "", 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, l, graph.EdgeOp{Src: uint32(i), Dst: uint32(i + 1)})
	}
	if got := l.ackedSeq(); got != 3 {
		t.Fatalf("ackedSeq = %d, want 3", got)
	}
	if err := l.rotate(2); err != nil {
		t.Fatal(err)
	}
	if ops := l.opsThrough(^uint64(0)); len(ops) != 1 {
		t.Fatalf("post-rotate tail = %+v", ops)
	}
	if c.fsyncs.Load() != 0 {
		t.Fatal("memory-only log performed fsyncs")
	}
	l.close(false)
}

func TestDeltaLogAppendFailpoint(t *testing.T) {
	defer fault.Reset()
	var c walCounters
	l, _, err := openDeltaLog("g", walPath(t), 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableFromSpec("store/wal-append=error*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.append([]graph.EdgeOp{{Src: 0, Dst: 1}}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if seq := mustAppend(t, l, graph.EdgeOp{Src: 0, Dst: 1}); seq != 1 {
		t.Fatalf("seq after injected failure = %d, want 1", seq)
	}
	l.close(false)
}

func TestDeltaLogConcurrentAppendWithFsyncFault(t *testing.T) {
	// Mixed success/failure under concurrency: every append must either be
	// acknowledged (and survive reopen) or error (and be absent on reopen).
	// The log's last append fails too: an earlier failed record is
	// overwritten in place by the next append, so only a failure with
	// nothing after it shows a record that a failed fsync left on disk.
	defer fault.Reset()
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.EnableFromSpec("store/wal-fsync=error*3"); err != nil {
		t.Fatal(err)
	}
	const writers = 12
	acked := make([]bool, writers+1)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := l.append([]graph.EdgeOp{{Src: uint32(i), Dst: uint32(i)}})
			acked[i] = err == nil
		}(i)
	}
	wg.Wait()
	if err := fault.EnableFromSpec("store/wal-fsync=error*1"); err != nil {
		t.Fatal(err)
	}
	_, err = l.append([]graph.EdgeOp{{Src: writers, Dst: writers}})
	acked[writers] = err == nil
	l.close(false)

	l2, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	survived := map[uint32]bool{}
	for _, op := range l2.opsThrough(^uint64(0)) {
		survived[op.Src] = true
	}
	for i, ok := range acked {
		if ok && !survived[uint32(i)] {
			t.Fatalf("acknowledged batch %d lost on reopen", i)
		}
		if !ok && survived[uint32(i)] {
			t.Fatalf("unacknowledged batch %d survived reopen", i)
		}
	}
	l2.close(false)
}

func TestWALWedgedErrorFormat(t *testing.T) {
	err := &WALWedgedError{Name: "g", Err: fmt.Errorf("boom")}
	if !errors.Is(err, err.Err) {
		t.Fatal("Unwrap broken")
	}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
}

// TestDeltaLogFollowerLostToRollbackDespiteReusedSeq: a record rolled back by
// a failed fsync gives its sequence number up to the next append. The failed
// append reports an error, the next batch alone holds the number, and a
// reopen replays exactly the acknowledged batches. (The name is from the
// log's group commit, under which a parked follower could wake to find its
// number reused and acknowledge a batch the truncate had removed.) The failed
// batch is the longer one, so a record a missing rollback left behind would
// show on reopen as a torn or corrupt tail past the batch that overwrote its
// start.
func TestDeltaLogFollowerLostToRollbackDespiteReusedSeq(t *testing.T) {
	defer fault.Reset()
	path := walPath(t)
	var c walCounters
	l, _, err := openDeltaLog("g", path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, graph.EdgeOp{Src: 1, Dst: 1}) // seq 1, durable

	if err := fault.EnableFromSpec("store/wal-fsync=error*1"); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.append([]graph.EdgeOp{{Src: 66, Dst: 66}, {Src: 67, Dst: 67}}); err == nil {
		t.Fatalf("append acknowledged seq %d through a failed fsync", seq)
	}
	if seq := mustAppend(t, l, graph.EdgeOp{Src: 2, Dst: 2}); seq != 2 {
		t.Fatalf("post-rollback seq = %d, want 2", seq)
	}
	l.close(false)

	l2, rec, err := openCounted(path, 1, &c)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close(false)
	if rec != (recovery{Replayed: 2}) {
		t.Fatalf("recovery = %+v, want a clean replay of 2 batches", rec)
	}
	ops := l2.opsThrough(^uint64(0))
	if len(ops) != 2 || ops[0].Src != 1 || ops[1].Src != 2 {
		t.Fatalf("replayed ops = %+v, want the two acknowledged batches", ops)
	}
}
