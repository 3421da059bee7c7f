package store

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// This file is the store's fault-containment surface: typed errors for the
// two ways rehydration fails (corruption vs. exhausted transient retries),
// the retry/quarantine logic itself, and the readiness signal serving layers
// poll.

// QuarantineExt is appended to a snapshot file's name when rehydration finds
// it corrupt. The damaged bytes are preserved for post-mortem instead of
// deleted, but moved out of the manifest's namespace so they are never read
// again.
const QuarantineExt = ".quarantined"

// CorruptSnapshotError reports that a graph's snapshot failed structural
// validation and was quarantined. The graph stays registered cold: Acquire
// keeps returning this error (sticky — corruption is deterministic, retrying
// cannot help) until a new Add replaces the graph. It matches
// graph.ErrCorrupt under errors.Is.
type CorruptSnapshotError struct {
	// Name is the registered graph; Path is where the quarantined snapshot
	// now lives.
	Name string
	Path string
	// Err is the underlying decode failure.
	Err error
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("store: snapshot for %q corrupt (quarantined at %s): %v", e.Name, e.Path, e.Err)
}

func (e *CorruptSnapshotError) Unwrap() error { return e.Err }

// RehydrateError reports that loading a graph's snapshot kept failing with
// transient errors after rehydrateAttempts tries. Unlike corruption it is not
// sticky: the next Acquire retries from scratch.
type RehydrateError struct {
	Name     string
	Attempts int
	Err      error
}

func (e *RehydrateError) Error() string {
	return fmt.Sprintf("store: rehydrating %q failed after %d attempts: %v", e.Name, e.Attempts, e.Err)
}

func (e *RehydrateError) Unwrap() error { return e.Err }

// wedgedThreshold is the consecutive-failure count at which Ready starts
// reporting the store degraded: one failed rehydrate is a blip, a streak
// means the data directory is unreadable and the instance should stop taking
// traffic.
const wedgedThreshold = 3

// rehydrateAttempts bounds how often a transiently failing snapshot load is
// tried before Acquire gives up with a *RehydrateError; corruption is never
// retried. rehydrateBackoff is the first delay between attempts, doubling per
// retry and capped at one second.
const (
	rehydrateAttempts = 3
	rehydrateBackoff  = 10 * time.Millisecond
)

// rehydrate loads e's snapshot, retrying transient I/O errors with capped
// exponential backoff and quarantining the file on corruption. It holds no
// locks; the caller holds e.load. On success the store's consecutive-failure
// streak resets.
func (s *Store) rehydrate(e *entry) (*graph.Graph, error) {
	backoff := rehydrateBackoff
	const maxBackoff = time.Second
	var lastErr error
	for a := 1; a <= rehydrateAttempts; a++ {
		err := fault.Inject("store/rehydrate")
		var g *graph.Graph
		if err == nil {
			g, err = graph.ReadFile(e.snapshot)
		}
		if err == nil {
			s.mu.Lock()
			s.rehydrateStreak = 0
			s.rehydrations++
			s.mu.Unlock()
			return g, nil
		}
		if errors.Is(err, graph.ErrCorrupt) {
			return nil, s.quarantine(e, err)
		}
		lastErr = err
		if a < rehydrateAttempts {
			s.mu.Lock()
			s.rehydrateRetries++
			s.mu.Unlock()
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
	s.mu.Lock()
	s.rehydrateStreak++
	s.mu.Unlock()
	return nil, &RehydrateError{Name: e.name, Attempts: rehydrateAttempts, Err: lastErr}
}

// quarantine moves e's corrupt snapshot aside, marks the entry sticky-corrupt
// (it stays registered cold so List still shows it and Add can heal it), and
// drops it from the manifest. The caller holds e.load.
func (s *Store) quarantine(e *entry, cause error) error {
	qpath := e.snapshot + QuarantineExt
	if err := os.Rename(e.snapshot, qpath); err != nil {
		// The bytes are unreadable either way; record where they were.
		qpath = e.snapshot
	}
	ce := &CorruptSnapshotError{Name: e.name, Path: qpath, Err: cause}
	s.mu.Lock()
	e.corrupt = ce
	e.snapshot = ""
	s.quarantined++
	s.syncManifestLocked()
	s.mu.Unlock()
	return ce
}

// Ready reports whether the store can usefully serve: nil when open and
// healthy, ErrClosed after Close, or a degraded-state error while
// rehydration is wedged (wedgedThreshold consecutive exhausted-retry
// failures with no success in between). Serving layers map a non-nil result
// to an unready health check.
func (s *Store) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.rehydrateStreak >= wedgedThreshold {
		return fmt.Errorf("store: rehydration wedged (%d consecutive failures)", s.rehydrateStreak)
	}
	if wedged := s.walStatsLocked().Wedged; wedged > 0 {
		return fmt.Errorf("store: %d delta log(s) wedged (writes refused pending heal)", wedged)
	}
	return nil
}
