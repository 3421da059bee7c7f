package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// This file owns the per-graph edge delta log: the write-ahead log file
// under the data directory (format: internal/graph delta codec) plus the
// in-memory tail of acknowledged, not-yet-compacted batches that the
// overlay view is materialized from. The log guarantees exactly the WAL
// contract: a batch is acknowledged only after its record is durable
// (written and fsynced), an unacknowledged batch never survives a crash
// (failed syncs roll the file back before the error is returned), and
// reopening replays acknowledged batches in order — truncating a torn tail,
// quarantining a segment damaged beyond what truncation explains.
//
// Concurrency follows the group-commit pattern: appenders serialize record
// writes under l.mu, then one of them becomes the sync leader and fsyncs
// with the lock released, covering every record written before the sync
// started. Batches appended while an fsync is in flight ride the next sync.
// One fsync therefore acknowledges a whole burst of concurrent writers.
//
// A rollback resets seq to the durable watermark, so sequence numbers are
// reused and a waiter cannot learn its record's fate by comparing them: by
// the time it wakes, fresh appends may have taken its number and been synced
// under it. Each written, not-yet-durable record therefore has an outcome
// cell (unsynced) that only a rollback sets, and a waiter is acknowledged
// when the watermark covers its number and its own cell is still clear.

// walExt is the delta log file suffix, alongside <name+lineage>.grzg
// snapshots in the data directory.
const walExt = ".wal"

// walCounters aggregates delta-log activity across every graph in a store.
// All fields are atomic: the log mutates them under its own lock, metrics
// and Stats read them lock-free.
type walCounters struct {
	appends      atomic.Uint64 // acknowledged batches
	appendErrors atomic.Uint64 // rejected or rolled-back appends
	fsyncs       atomic.Uint64 // successful group commits
	fsyncErrors  atomic.Uint64 // failed syncs (each rolls back its group)
	replayed     atomic.Uint64 // batches replayed from disk at open
	tornTails    atomic.Uint64 // torn tails truncated at open
	quarantined  atomic.Uint64 // corrupt segments moved aside
	rotations    atomic.Uint64 // log rewrites (compaction, healing)
	healed       atomic.Uint64 // wedged logs recovered by rewrite
}

// deltaLog is one graph's mutation log. path == "" is the memory-only mode
// used when the store has no data directory: identical semantics minus
// durability (appends acknowledge immediately).
type deltaLog struct {
	name    string
	path    string
	lineage uint64
	c       *walCounters

	// tailBytes/tailBatches/wedgedFlag mirror guarded state for lock-free
	// gauges: encoded bytes and count of acknowledged un-compacted batches,
	// and whether the log is wedged (1) or healthy (0).
	tailBytes   atomic.Int64
	tailBatches atomic.Int64
	wedgedFlag  atomic.Int32

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	// baseSeq is the last sequence number folded into the base snapshot;
	// seq the last written; synced the last durable. size/syncedSize are the
	// file lengths covering seq/synced respectively.
	baseSeq, seq, synced uint64
	size, syncedSize     int64
	syncing              bool
	// batches is the un-compacted tail in sequence order: everything in
	// (baseSeq, seq]. Entries above synced are written but not yet durable
	// and are dropped if their group's sync fails.
	batches []graph.DeltaBatch
	// unsynced holds one flag per record in (synced, seq], in sequence
	// order, shared with the appender waiting on it: a rollback sets every
	// one (those records are gone) and a sync drops the ones it made durable.
	unsynced []*bool
	// wedged is set when even rolling back a failed sync failed, or when a
	// rewrite's directory sync failed: the file state is unknown and every
	// append is refused until a heal (full rewrite from the acknowledged
	// tail) succeeds. healAttempts backs off heal retries exponentially,
	// capped at healBackoffCap.
	wedged       bool
	healAttempts int
	healNotAfter time.Time
	closed       bool
}

const (
	healBackoffBase = 10 * time.Millisecond
	healBackoffCap  = time.Second
)

// WALWedgedError reports that a graph's delta log is wedged: a sync failed
// and the rollback failed too, so the file cannot be trusted until a heal
// rewrite succeeds. Writes are refused while wedged; reads keep serving the
// last acknowledged state.
type WALWedgedError struct {
	Name string
	Err  error
}

func (e *WALWedgedError) Error() string {
	return fmt.Sprintf("store: delta log for %q wedged: %v", e.Name, e.Err)
}

func (e *WALWedgedError) Unwrap() error { return e.Err }

// newDeltaLog creates the in-memory state for a graph with no existing log.
func newDeltaLog(name, path string, lineage uint64, c *walCounters) *deltaLog {
	l := &deltaLog{name: name, path: path, lineage: lineage, c: c}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// walRecovery describes what openDeltaLog found on disk, so the store can
// count it and schedule repair work (a quarantined segment leaves the
// surviving prefix durable only via the quarantine file — compacting it
// into the snapshot restores normal durability).
type walRecovery struct {
	Replayed    int
	TornTail    bool
	Quarantined bool
	// NeedCompact is set when the surviving tail should be folded into the
	// snapshot promptly (quarantine recovery).
	NeedCompact bool
}

// openDeltaLog opens (or concludes the absence of) the delta log for name,
// replaying acknowledged batches. A torn tail is truncated in place; a
// corrupt segment is renamed aside with QuarantineExt and the legible
// prefix re-logged into a fresh file; a log whose lineage does not match
// the manifest's is a stale leftover from before a whole-graph replace and
// is removed unread.
func openDeltaLog(name, path string, lineage uint64, c *walCounters) (*deltaLog, walRecovery, error) {
	l := newDeltaLog(name, path, lineage, c)
	var rec walRecovery
	if path == "" {
		return l, rec, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return l, rec, nil
	}
	if err != nil {
		return nil, rec, fmt.Errorf("store: reading delta log for %q: %w", name, err)
	}
	if len(data) == 0 {
		// Created but never written: indistinguishable from absent.
		return l, rec, nil
	}
	log, decErr := graph.DecodeDeltaLog(data)
	if decErr == nil && log.Lineage != lineage {
		// Stale log from a previous base lineage (crash between a replace's
		// manifest commit and its log cleanup). Its deltas were superseded
		// by the replace; discard.
		os.Remove(path)
		return l, rec, nil
	}
	switch {
	case decErr == nil:
	case errors.Is(decErr, graph.ErrTornTail):
		if err := os.Truncate(path, int64(log.GoodLen)); err != nil {
			return nil, rec, fmt.Errorf("store: truncating torn delta log for %q: %w", name, err)
		}
		rec.TornTail = true
		c.tornTails.Add(1)
	case errors.Is(decErr, graph.ErrCorrupt):
		// Preserve the damaged bytes for post-mortem and re-log the legible
		// prefix so it stays durable without the quarantined file.
		qpath := path + QuarantineExt
		if err := os.Rename(path, qpath); err != nil {
			return nil, rec, fmt.Errorf("store: quarantining delta log for %q: %w", name, err)
		}
		rec.Quarantined = true
		rec.NeedCompact = true
		c.quarantined.Add(1)
	default:
		return nil, rec, decErr
	}
	l.adoptLocked(log.BaseSeq, log.Batches)
	rec.Replayed = len(log.Batches)
	c.replayed.Add(uint64(len(log.Batches)))
	if rec.Quarantined && len(log.Batches) > 0 {
		// Rewrite the surviving prefix into a fresh log immediately.
		if err := l.rotate(log.BaseSeq); err != nil {
			return nil, rec, fmt.Errorf("store: re-logging after quarantine for %q: %w", name, err)
		}
	}
	return l, rec, nil
}

// adoptLocked installs replayed state. Only called before the log is shared.
func (l *deltaLog) adoptLocked(baseSeq uint64, batches []graph.DeltaBatch) {
	l.baseSeq = baseSeq
	l.seq = baseSeq
	var bytes int64
	for _, b := range batches {
		l.seq = b.Seq
		bytes += int64(graph.EncodedDeltaLen(len(b.Ops)))
	}
	l.synced = l.seq
	l.batches = batches
	l.size = int64(graph.DeltaHeaderLen) + bytes
	l.syncedSize = l.size
	l.tailBytes.Store(bytes)
	l.tailBatches.Store(int64(len(batches)))
}

// ensureOpenLocked opens (creating with a header if necessary) the log file
// and syncs the directory, so the file's name survives power loss before the
// first record's fsync acknowledges anything.
func (l *deltaLog) ensureOpenLocked() error {
	if l.f != nil || l.path == "" {
		return nil
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() == 0 {
		hdr := graph.EncodeDeltaHeader(l.lineage, l.baseSeq)
		if _, err := f.WriteAt(hdr, 0); err != nil {
			f.Close()
			return err
		}
		l.size = int64(len(hdr))
		l.syncedSize = l.size
	}
	if err := syncPath(filepath.Dir(l.path)); err != nil {
		f.Close()
		return err
	}
	l.f = f
	return nil
}

// ackedSeq returns the highest acknowledged sequence number.
func (l *deltaLog) ackedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// opsThrough returns a copy of the acknowledged operations for every batch
// with sequence ≤ seq, concatenated in order — the input to the canonical
// overlay merge.
func (l *deltaLog) opsThrough(seq uint64) []graph.EdgeOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int
	for _, b := range l.batches {
		if b.Seq > seq || b.Seq > l.synced {
			break
		}
		n += len(b.Ops)
	}
	ops := make([]graph.EdgeOp, 0, n)
	for _, b := range l.batches {
		if b.Seq > seq || b.Seq > l.synced {
			break
		}
		ops = append(ops, b.Ops...)
	}
	return ops
}

// append logs one batch and blocks until it is durable (or the log has no
// file, in which case acknowledgement is immediate). It returns the batch's
// sequence number. On a failed sync the file is rolled back to the last
// durable length so the unacknowledged record cannot survive a crash; if
// even the rollback fails the log wedges.
func (l *deltaLog) append(ops []graph.EdgeOp) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.wedged {
		if err := l.healLocked(); err != nil {
			l.c.appendErrors.Add(1)
			return 0, err
		}
	}
	if err := fault.Inject("store/wal-append"); err != nil {
		l.c.appendErrors.Add(1)
		return 0, err
	}
	if err := l.ensureOpenLocked(); err != nil {
		l.c.appendErrors.Add(1)
		return 0, err
	}
	seq := l.seq + 1
	rec := graph.AppendDeltaRecord(nil, seq, ops)
	if l.f != nil {
		if _, err := l.f.WriteAt(rec, l.size); err != nil {
			l.rollbackLocked(err)
			l.c.appendErrors.Add(1)
			return 0, err
		}
	}
	l.seq = seq
	l.size += int64(len(rec))
	l.batches = append(l.batches, graph.DeltaBatch{Seq: seq, Ops: ops})

	if l.f == nil {
		// Memory-only: acknowledged by definition.
		l.synced = seq
		l.syncedSize = l.size
		l.publishTailLocked()
		l.c.appends.Add(1)
		return seq, nil
	}

	// Group commit: wait until a sync covers this record, becoming the
	// leader if no sync is in flight. The leader releases the lock around
	// the fsync so concurrent appenders keep writing records that the next
	// sync will cover.
	lost := new(bool)
	l.unsynced = append(l.unsynced, lost)
	for !*lost && l.synced < seq {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		mark, markSize := l.seq, l.size
		f := l.f
		l.mu.Unlock()
		err := fault.Inject("store/wal-fsync")
		if err == nil {
			err = f.Sync()
		}
		l.mu.Lock()
		l.syncing = false
		switch {
		case err != nil:
			l.c.fsyncErrors.Add(1)
			l.rollbackLocked(err)
		case !*lost:
			l.c.fsyncs.Add(1)
			l.unsynced = l.unsynced[mark-l.synced:]
			l.synced = mark
			l.syncedSize = markSize
			l.publishTailLocked()
		default:
			// Another appender's failed write rolled the log back while this
			// sync was in flight: the records it covered, the leader's own
			// among them, are no longer in the file.
		}
		l.cond.Broadcast()
	}
	if *lost {
		// A failed write or sync rolled this record back; it was never
		// acknowledged and is no longer in the file, whatever the sequence
		// numbers say by now.
		l.c.appendErrors.Add(1)
		if l.wedged {
			return 0, &WALWedgedError{Name: l.name, Err: errors.New("sync failed and rollback failed")}
		}
		return 0, fmt.Errorf("store: delta append for %q lost to a failed sync", l.name)
	}
	l.c.appends.Add(1)
	return seq, nil
}

// rollbackLocked discards every record above the durable watermark after a
// failed write or sync: the file is truncated back to the acknowledged
// length and the in-memory tail trimmed to match, so an unacknowledged
// batch can neither be served nor replayed. If the truncate fails the file
// state is unknowable and the log wedges.
func (l *deltaLog) rollbackLocked(cause error) {
	if l.f != nil {
		if err := os.Truncate(l.path, l.syncedSize); err != nil {
			l.wedged = true
			l.wedgedFlag.Store(1)
			l.healAttempts = 0
			l.healNotAfter = time.Time{}
			_ = cause
		}
	}
	for len(l.batches) > 0 && l.batches[len(l.batches)-1].Seq > l.synced {
		l.batches = l.batches[:len(l.batches)-1]
	}
	for _, lost := range l.unsynced {
		*lost = true
	}
	l.unsynced = nil
	l.seq = l.synced
	l.size = l.syncedSize
	l.publishTailLocked()
}

// healLocked attempts to recover a wedged log by rewriting it wholesale
// from the acknowledged tail, with exponential backoff between attempts.
func (l *deltaLog) healLocked() error {
	if time.Now().Before(l.healNotAfter) {
		return &WALWedgedError{Name: l.name, Err: errors.New("heal backing off")}
	}
	if err := l.rewriteLocked(l.baseSeq); err != nil {
		backoff := healBackoffBase << l.healAttempts
		if backoff > healBackoffCap {
			backoff = healBackoffCap
		}
		l.healAttempts++
		l.healNotAfter = time.Now().Add(backoff)
		return &WALWedgedError{Name: l.name, Err: err}
	}
	l.wedged = false
	l.wedgedFlag.Store(0)
	l.healAttempts = 0
	l.healNotAfter = time.Time{}
	l.c.healed.Add(1)
	return nil
}

// rotate rewrites the log to contain only batches above newBaseSeq — the
// compaction step that drops everything already folded into the snapshot.
// Batches written but not yet durable ride along into the new file, whose
// fsync acknowledges them.
func (l *deltaLog) rotate(newBaseSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if err := l.rewriteLocked(newBaseSeq); err != nil {
		return err
	}
	if l.wedged {
		l.wedged = false
		l.wedgedFlag.Store(0)
		l.c.healed.Add(1)
	}
	l.cond.Broadcast()
	return nil
}

// rewriteLocked atomically replaces the log file with a fresh one holding
// every batch above newBaseSeq, then syncs and swaps file handles. The old
// file is intact until the rename, so a failure before it leaves the previous
// state. The directory sync after the rename is what makes the new file's
// name durable (as in commitFile); if it fails, the batches that rode along
// unacknowledged are rolled back and the log wedges until a heal rewrites it.
func (l *deltaLog) rewriteLocked(newBaseSeq uint64) error {
	keep := l.batches[:0:0]
	for _, b := range l.batches {
		if b.Seq > newBaseSeq {
			keep = append(keep, b)
		}
	}
	if l.path == "" {
		l.baseSeq = newBaseSeq
		l.batches = keep
		l.publishTailLocked()
		l.c.rotations.Add(1)
		return nil
	}
	buf := graph.EncodeDeltaHeader(l.lineage, newBaseSeq)
	ackedLen := len(buf)
	for _, b := range keep {
		buf = graph.AppendDeltaRecord(buf, b.Seq, b.Ops)
		if b.Seq <= l.synced {
			ackedLen = len(buf)
		}
	}
	tmp := l.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = f
	l.baseSeq = newBaseSeq
	l.batches = keep
	l.size = int64(len(buf))
	if err := syncPath(filepath.Dir(l.path)); err != nil {
		l.syncedSize = int64(ackedLen)
		l.rollbackLocked(err)
		l.wedged = true
		l.wedgedFlag.Store(1)
		return err
	}
	l.syncedSize = l.size
	l.seq = newBaseSeq
	for _, b := range keep {
		l.seq = b.Seq
	}
	l.synced = l.seq
	l.unsynced = nil // the new file's fsync made every ride-along durable
	l.publishTailLocked()
	l.c.rotations.Add(1)
	return nil
}

// publishTailLocked refreshes the lock-free gauge mirrors of the
// acknowledged tail.
func (l *deltaLog) publishTailLocked() {
	var bytes int64
	var n int64
	for _, b := range l.batches {
		if b.Seq > l.synced {
			break
		}
		bytes += int64(graph.EncodedDeltaLen(len(b.Ops)))
		n++
	}
	l.tailBytes.Store(bytes)
	l.tailBatches.Store(n)
}

// close releases the file handle; with remove set the log file (and any
// quarantined sibling) is deleted — the Delete path.
func (l *deltaLog) close(remove bool) {
	l.mu.Lock()
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.mu.Unlock()
	if remove && l.path != "" {
		os.Remove(l.path)
	}
	l.cond.Broadcast()
}
