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
// (a failed write or sync truncates the file back before the error is
// returned), and reopening replays acknowledged batches in order —
// truncating a torn tail, quarantining a segment damaged beyond what
// truncation explains.
//
// Appends are serialized: append holds l.mu from the record's write through
// its fsync, as rewriteLocked does through its own syncs. At most one record
// is ever unacknowledged, and only its own appender waits on it, so a failed
// write or sync removes that record and nothing else, and no sequence number
// is reused while anyone could still be waiting on it. Concurrent appenders
// to one log pay one fsync each in turn; no workload has two (the router
// applies a graph's batches one at a time, and the benchmark's mutation
// workload runs one client).

// walExt is the delta log file suffix, alongside <name+lineage>.grzg
// snapshots in the data directory.
const walExt = ".wal"

// walCounters aggregates delta-log activity across every graph in a store.
// All fields are atomic: the log mutates them under its own lock, metrics
// and Stats read them lock-free.
type walCounters struct {
	appends      atomic.Uint64 // acknowledged batches
	appendErrors atomic.Uint64 // rejected or rolled-back appends
	fsyncs       atomic.Uint64 // successful syncs, one per acknowledged batch
	fsyncErrors  atomic.Uint64 // failed syncs (each rolls back its batch)
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

	mu sync.Mutex
	f  *os.File
	// baseSeq is the last sequence number folded into the base snapshot and
	// seq the last acknowledged; size is the file length covering seq.
	baseSeq, seq uint64
	size         int64
	// batches is the un-compacted tail in sequence order: everything in
	// (baseSeq, seq]. A batch joins it only once its record is durable.
	batches []graph.DeltaBatch
	// wedged is set when even rolling back a failed write or sync failed, or
	// when a rewrite's directory sync failed: the file state is unknown and
	// every append is refused until a heal (full rewrite from the
	// acknowledged tail) succeeds. healAttempts backs off heal retries
	// exponentially, capped at healBackoffCap.
	wedged       bool
	healAttempts int
	healNotAfter time.Time
	closed       bool
}

const (
	healBackoffBase = 10 * time.Millisecond
	healBackoffCap  = time.Second
)

// WALWedgedError reports that a graph's delta log is wedged: a write or sync
// failed and the rollback failed too, so the file cannot be trusted until a
// heal rewrite succeeds. Writes are refused while wedged; reads keep serving
// the last acknowledged state.
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
	return &deltaLog{name: name, path: path, lineage: lineage, c: c}
}

// openDeltaLog opens (or concludes the absence of) the delta log for name,
// replaying acknowledged batches. A torn tail is truncated in place; a
// corrupt segment is renamed aside with QuarantineExt and the legible
// prefix re-logged into a fresh file; a log whose lineage does not match
// the manifest's is a stale leftover from before a whole-graph replace and
// is removed unread. What it found is counted in c; needCompact reports a
// quarantine, whose surviving prefix should be folded into the snapshot
// promptly to restore normal durability.
func openDeltaLog(name, path string, lineage uint64, c *walCounters) (l *deltaLog, needCompact bool, err error) {
	l = newDeltaLog(name, path, lineage, c)
	if path == "" {
		return l, false, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return l, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading delta log for %q: %w", name, err)
	}
	if len(data) == 0 {
		// Created but never written: indistinguishable from absent.
		return l, false, nil
	}
	log, decErr := graph.DecodeDeltaLog(data)
	if decErr == nil && log.Lineage != lineage {
		// Stale log from a previous base lineage (crash between a replace's
		// manifest commit and its log cleanup). Its deltas were superseded
		// by the replace; discard.
		os.Remove(path)
		return l, false, nil
	}
	switch {
	case decErr == nil:
	case errors.Is(decErr, graph.ErrTornTail):
		if err := os.Truncate(path, int64(log.GoodLen)); err != nil {
			return nil, false, fmt.Errorf("store: truncating torn delta log for %q: %w", name, err)
		}
		c.tornTails.Add(1)
	case errors.Is(decErr, graph.ErrCorrupt):
		// Preserve the damaged bytes for post-mortem and re-log the legible
		// prefix so it stays durable without the quarantined file.
		qpath := path + QuarantineExt
		if err := os.Rename(path, qpath); err != nil {
			return nil, false, fmt.Errorf("store: quarantining delta log for %q: %w", name, err)
		}
		needCompact = true
		c.quarantined.Add(1)
	default:
		return nil, false, decErr
	}
	l.adoptLocked(log.BaseSeq, log.Batches)
	c.replayed.Add(uint64(len(log.Batches)))
	if needCompact && len(log.Batches) > 0 {
		// Rewrite the surviving prefix into a fresh log immediately.
		if err := l.rotate(log.BaseSeq); err != nil {
			return nil, false, fmt.Errorf("store: re-logging after quarantine for %q: %w", name, err)
		}
	}
	return l, needCompact, nil
}

// adoptLocked installs replayed state. Only called before the log is shared.
func (l *deltaLog) adoptLocked(baseSeq uint64, batches []graph.DeltaBatch) {
	l.baseSeq, l.seq, l.batches = baseSeq, baseSeq, batches
	if len(batches) > 0 {
		l.seq = batches[len(batches)-1].Seq
	}
	l.publishTailLocked()
	l.size = int64(graph.DeltaHeaderLen) + l.tailBytes.Load()
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
	return l.seq
}

// opsThrough returns a copy of the acknowledged operations for every batch
// with sequence ≤ seq, concatenated in order — the input to the canonical
// overlay merge.
func (l *deltaLog) opsThrough(seq uint64) []graph.EdgeOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opsInLocked(l.baseSeq, min(seq, l.seq))
}

// opsInLocked returns a copy of the operations of every resident batch with
// sequence in (fromSeq, toSeq], concatenated in order. Callers hold l.mu.
func (l *deltaLog) opsInLocked(fromSeq, toSeq uint64) []graph.EdgeOp {
	var n int
	for _, b := range l.batches {
		if b.Seq > toSeq {
			break
		}
		if b.Seq > fromSeq {
			n += len(b.Ops)
		}
	}
	ops := make([]graph.EdgeOp, 0, n)
	for _, b := range l.batches {
		if b.Seq > toSeq {
			break
		}
		if b.Seq > fromSeq {
			ops = append(ops, b.Ops...)
		}
	}
	return ops
}

// append logs one batch and returns its sequence number once the record is
// durable (immediately when the log has no file). It holds l.mu from the
// record's write through its fsync, so the record is the only one not yet
// acknowledged and the batch joins the tail only after the sync succeeds.
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
			return 0, l.rollbackLocked(err)
		}
		err := fault.Inject("store/wal-fsync")
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			l.c.fsyncErrors.Add(1)
			return 0, l.rollbackLocked(fmt.Errorf("store: delta log fsync for %q: %w", l.name, err))
		}
		l.c.fsyncs.Add(1)
	}
	l.seq = seq
	l.size += int64(len(rec))
	l.batches = append(l.batches, graph.DeltaBatch{Seq: seq, Ops: ops})
	l.publishTailLocked()
	l.c.appends.Add(1)
	return seq, nil
}

// rollbackLocked truncates the file back to l.size after the next record's
// write or sync failed, so no crash can bring that unacknowledged record
// back, and returns the error append reports. If the truncate fails the file
// state is unknowable and the log wedges.
func (l *deltaLog) rollbackLocked(err error) error {
	l.c.appendErrors.Add(1)
	if terr := os.Truncate(l.path, l.size); terr != nil {
		l.wedged = true
		l.wedgedFlag.Store(1)
		l.healAttempts = 0
		l.healNotAfter = time.Time{}
		return &WALWedgedError{Name: l.name, Err: errors.Join(err, terr)}
	}
	return err
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
func (l *deltaLog) rotate(newBaseSeq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.rewriteLocked(newBaseSeq); err != nil {
		return err
	}
	if l.wedged {
		l.wedged = false
		l.wedgedFlag.Store(0)
		l.c.healed.Add(1)
	}
	return nil
}

// rewriteLocked atomically replaces the log file with a fresh one holding
// every batch above newBaseSeq, then syncs and swaps file handles. The old
// file is intact until the rename, so a failure before it leaves the previous
// state. The directory sync after the rename is what makes the new file's
// name durable (as in commitFile); if it fails, the log wedges until a heal
// rewrites it.
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
	for _, b := range keep {
		buf = graph.AppendDeltaRecord(buf, b.Seq, b.Ops)
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
	l.publishTailLocked()
	if err := syncPath(filepath.Dir(l.path)); err != nil {
		l.wedged = true
		l.wedgedFlag.Store(1)
		return err
	}
	l.c.rotations.Add(1)
	return nil
}

// publishTailLocked refreshes the lock-free gauge mirrors of the
// acknowledged tail.
func (l *deltaLog) publishTailLocked() {
	var bytes int64
	for _, b := range l.batches {
		bytes += int64(graph.EncodedDeltaLen(len(b.Ops)))
	}
	l.tailBytes.Store(bytes)
	l.tailBatches.Store(int64(len(l.batches)))
}

// close releases the file handle; with remove set the log file (and any
// quarantined sibling) is deleted — the Delete path.
func (l *deltaLog) close(remove bool) {
	l.mu.Lock()
	l.closed = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.mu.Unlock()
	if remove && l.path != "" {
		os.Remove(l.path)
	}
}
