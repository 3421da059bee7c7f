package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
)

// A fold writes a graph's current view — the layouts a handle pins, base ⊕
// overlay through its viewSeq — over its lineage's snapshot file. Snapshot
// is a fold; Compact is a fold that then truncates the delta log, bounding
// recovery-replay time and overlay memory. A fold only moves where the bytes
// live: it publishes, retires and notifies nothing, so the version, its
// runner, the handles pinning it and every cached answer keyed by it
// survive. The steps are durable in this order:
//
//  1. Write the view as the lineage's snapshot (temp + rename; commitFile).
//  2. Rewrite the manifest, if the entry is still the current one.
//  3. Compact only: rotate the delta log down to the batches past viewSeq.
//
// A crash after 1 or 2 but before 3 leaves a snapshot that already contains
// operations the log still holds; reopening replays them onto it, and
// last-writer-wins replay makes that a no-op. A crash during 1 leaves the
// previous snapshot intact behind the rename.
//
// Folds have one owner per graph at a time (foldOwner): the background
// compactor, an explicit Compact and a Snapshot would otherwise interleave
// their writes into the one temp file step 1 renames into place, right
// before step 3 truncates the log that could have repaired it.

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

// Compact folds the named graph's mutation overlay into its snapshot now and
// truncates its delta log. A graph with an empty overlay is a no-op; one
// replaced or mutated past the folded view meanwhile keeps its log (the next
// trigger folds the newer state). A call that finds another fold of the
// same graph in flight waits for it and then folds only what that one left —
// usually nothing, so the call has joined it. The store/compact failpoint
// injects failures here, upstream of any state change.
func (s *Store) Compact(name string) error {
	if err := fault.Inject("store/compact"); err != nil {
		s.compactErrors.Add(1)
		return err
	}
	return s.fold(name, true)
}

// Snapshot persists the named graph's current view to the data directory
// now (Add already does this; Snapshot re-persists on demand, e.g. after a
// manifest repair). The delta log keeps its batches, and a failure does not
// count as a compaction error.
func (s *Store) Snapshot(name string) error {
	if s.cfg.DataDir == "" {
		return errors.New("store: no data directory configured")
	}
	return s.fold(name, false)
}

// fold runs the steps above for Compact (compact set) and Snapshot.
func (s *Store) fold(name string, compact bool) error {
	// Owner first, view second: a view acquired before waiting out another
	// fold would overwrite that fold's base with batches missing that its
	// log rotation has already dropped.
	owner := s.foldOwner(name)
	owner.Lock()
	defer owner.Unlock()
	h, err := s.Acquire(name)
	if err != nil {
		return err
	}
	defer h.Close()
	e := h.e
	if compact && e.delta.tailBatches.Load() == 0 {
		return nil
	}
	err = func() error {
		if s.cfg.DataDir != "" {
			// The file e.snapshot names, read without s.mu (Delete clears it).
			path := filepath.Join(s.cfg.DataDir, snapshotFileName(name, e.lineage))
			if err := writeSnapshot(path, h.runner.Graph()); err != nil {
				return fmt.Errorf("store: snapshotting %q: %w", name, err)
			}
		}
		s.mu.Lock()
		current := !s.closed && s.graphs[name] == e
		var manifestErr error
		if current {
			manifestErr = s.syncManifestLocked()
		}
		s.mu.Unlock()
		if manifestErr != nil || !current || !compact {
			return manifestErr
		}
		// Replay over the folded base is idempotent, so a failed rotation
		// leaves the view correct; the next trigger retries it.
		if err := e.delta.rotate(e.viewSeq); err != nil {
			return fmt.Errorf("store: rotating delta log for %q: %w", name, err)
		}
		s.compactions.Add(1)
		return nil
	}()
	if err != nil && compact {
		s.compactErrors.Add(1)
	}
	return err
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
