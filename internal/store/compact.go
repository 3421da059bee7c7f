package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
)

// Compaction folds a graph's acknowledged mutation overlay into a fresh
// base snapshot and truncates the delta log, bounding recovery-replay time
// and overlay memory. The lifecycle is crash-consistent without any epoch
// bookkeeping because the overlay merge is replay-idempotent:
//
//  1. Materialize the current view (base ⊕ overlay through viewSeq).
//  2. Write it as the new snapshot (temp + rename; same lineage).
//  3. Publish a successor version over the new base and retire the old one
//     with reason RetireCompact. The served edge set is bit-identical.
//  4. Rotate the delta log down to the batches past viewSeq.
//
// A crash after 2 or 3 but before 4 leaves a snapshot that already contains
// operations the log still holds; reopening replays them onto it, and
// last-writer-wins replay makes that a no-op. A crash during 2 leaves the
// previous snapshot intact behind the rename.
//
// Steps 1–4 have one owner per graph at a time (foldOwner): the background
// compactor and an explicit Compact would otherwise interleave their writes
// into the one temp file step 2 renames into place, right before step 4
// truncates the log that could have repaired it.

const (
	compactAttempts    = 5
	compactBackoffBase = 10 * time.Millisecond
	compactBackoffCap  = time.Second
)

// foldOwner returns the mutex that serializes rewrites of name's snapshot
// file. Entries are never removed: a caller may be parked on the mutex
// while the name is deleted and re-added, and handing the newcomer a fresh
// mutex would give the file two owners again.
func (s *Store) foldOwner(name string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.foldOwners[name]
	if m == nil {
		m = new(sync.Mutex)
		s.foldOwners[name] = m
	}
	return m
}

// Compact folds the named graph's mutation overlay into its snapshot now.
// A graph with an empty overlay (or one that was concurrently replaced) is
// a no-op. A call that finds another fold of the same graph in flight waits
// for it and then folds only what that one left — usually nothing, so the
// call has joined it. The store/compact failpoint injects failures here,
// upstream of any state change.
func (s *Store) Compact(name string) error {
	if err := fault.Inject("store/compact"); err != nil {
		s.compactErrors.Add(1)
		return err
	}
	owner := s.foldOwner(name)
	owner.Lock()
	defer owner.Unlock()
	h, err := s.Acquire(name)
	if err != nil {
		return err
	}
	defer h.Close()
	e := h.e
	delta := e.delta
	if delta == nil || delta.tailBatches.Load() == 0 {
		return nil
	}
	// The handle's layouts are the view through e.viewSeq — by construction
	// the exact layouts a fresh base-plus-replay would produce, so their edges
	// ARE the new base. Batches acknowledged after this handle was acquired
	// stay in the log for the next round.
	content := h.runner.Graph()
	target := e.viewSeq

	var path string
	if s.cfg.DataDir != "" {
		path = filepath.Join(s.cfg.DataDir, snapshotFileName(name, e.lineage))
		if err := writeSnapshot(path, content); err != nil {
			s.compactErrors.Add(1)
			return fmt.Errorf("store: compacting %q: %w", name, err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.graphs[name] != e {
		// A replace, delete, or mutation published past us. The snapshot
		// write was wasted (or, for a mutation, is a valid-but-early base
		// the idempotent replay tolerates); the next trigger will fold the
		// newer state.
		s.mu.Unlock()
		return nil
	}
	ne := s.publishSuccessorLocked(e, target)
	ne.snapshot = path
	ne.vertices, ne.edges = content.N, content.Edges
	s.refreshViewCountsLocked(ne)
	manifestErr := s.syncManifestLocked()
	s.mu.Unlock()

	// The successor is published even if the manifest write failed (matching
	// Add's semantics), so subscribers must hear the retirement either way.
	s.notifyRetire(name, e.version, RetireCompact)
	if manifestErr != nil {
		s.compactErrors.Add(1)
		return manifestErr
	}
	if err := delta.rotate(target); err != nil {
		// The fold itself is committed; only log truncation failed. Replay
		// over the new base is idempotent, so correctness is unaffected —
		// retry the rotation on the next compaction trigger.
		s.compactErrors.Add(1)
		return fmt.Errorf("store: rotating delta log for %q: %w", name, err)
	}
	s.compactions.Add(1)
	return nil
}

// requestCompact nudges the background compactor toward name. Non-blocking:
// when the queue is full the request is dropped, which is safe because
// every trigger condition (overlay past CompactAfter, overlay at budget,
// quarantine recovery) re-fires until compaction actually runs.
func (s *Store) requestCompact(name string) {
	if s.compactCh == nil {
		return
	}
	select {
	case <-s.compactStop:
	case s.compactCh <- name:
	default:
	}
}

// compactLoop is the background compactor: one goroutine draining requests,
// retrying each failed fold with capped exponential backoff so a transient
// I/O error (or an injected store/compact fault) delays compaction instead
// of losing it. Unrecoverable conditions — the graph vanished, the store
// closed, the snapshot is quarantined — abandon the request.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.compactStop:
			return
		case name := <-s.compactCh:
			backoff := compactBackoffBase
			for attempt := 1; ; attempt++ {
				err := s.Compact(name)
				if err == nil || errors.Is(err, ErrNotFound) || errors.Is(err, ErrClosed) {
					break
				}
				var ce *CorruptSnapshotError
				if errors.As(err, &ce) || attempt >= compactAttempts {
					break
				}
				select {
				case <-s.compactStop:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > compactBackoffCap {
					backoff = compactBackoffCap
				}
			}
		}
	}
}
