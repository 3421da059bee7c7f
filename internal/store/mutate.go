package store

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// Streaming edge mutations. ApplyEdges is the write path behind
// POST /v1/graphs/{name}/edges: validate, append to the graph's delta log
// (blocking until the batch is durable), then publish a successor version
// whose view includes every acknowledged batch. Reads are never blocked by
// writes — queries keep pinning whatever version they acquired — and the
// version bump retires the predecessor, which is exactly the signal the
// query cache already invalidates on, so mutation consistency costs no new
// cache machinery.

// ErrMutationConflict reports that the graph was replaced or deleted while a
// mutation batch was in flight. The batch does not survive: the replacement
// minted a new lineage, superseding the old log.
var ErrMutationConflict = errors.New("store: graph replaced during mutation")

// DeltaBudgetError reports that a graph's un-compacted mutation overlay is
// at its byte budget: writes are refused (backpressure) until the background
// compactor folds the tail into the snapshot, while reads keep serving.
// Serving layers map it to 429 with a Retry-After.
type DeltaBudgetError struct {
	Name string
	// Pending is the overlay's current size; Budget the configured cap.
	Pending, Budget int64
}

func (e *DeltaBudgetError) Error() string {
	return fmt.Sprintf("store: mutation overlay for %q over budget (%d of %d bytes); compaction pending",
		e.Name, e.Pending, e.Budget)
}

// ApplyEdges applies one batch of edge insertions/deletions to the named
// graph. The call returns only after the batch is durable in the graph's
// delta log (group-commit fsync when a data directory is configured), with
// the log sequence number assigned to the batch and the store version whose
// view includes it.
//
// Semantics are last-writer-wins per (src, dst) pair: an insert upserts the
// pair to exactly one edge with the given weight (collapsing any duplicate
// base edges), a delete removes the pair entirely, and the final operation
// on a pair in a batch wins. Vertex IDs beyond the current vertex count
// grow the graph. On an unweighted graph, weights are ignored.
//
// Failure taxonomy: ErrNotFound (unknown name), *DeltaBudgetError (overlay
// at budget; retry after compaction), *WALWedgedError (log refusing writes
// pending heal; retry later), ErrMutationConflict (graph replaced
// mid-flight), ErrClosed. On any error the batch is not acknowledged and —
// by the log's rollback guarantee — will not resurface after a restart.
func (s *Store) ApplyEdges(name string, ops []graph.EdgeOp) (seq, version uint64, err error) {
	if err := graph.ValidateEdgeOps(ops); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, 0, ErrClosed
	}
	e := s.graphs[name]
	if e == nil {
		s.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delta := e.delta
	if budget := s.cfg.DeltaBudget; budget > 0 {
		pending := delta.tailBytes.Load()
		if pending+int64(graph.EncodedDeltaLen(len(ops))) > budget {
			s.mu.Unlock()
			s.requestCompact(name)
			return 0, 0, &DeltaBudgetError{Name: name, Pending: pending, Budget: budget}
		}
	}
	s.mu.Unlock()

	// The append blocks for durability with no store lock held, so readers
	// and mutators of other graphs proceed; concurrent appenders to the same
	// log share fsyncs via group commit.
	seq, err = delta.append(ops)
	if err != nil {
		return 0, 0, err
	}
	acked := delta.ackedSeq()

	var retiredVersion uint64
	published := false
	s.mu.Lock()
	cur := s.graphs[name]
	if cur == nil || cur.delta != delta {
		s.mu.Unlock()
		return 0, 0, ErrMutationConflict
	}
	if cur.viewSeq < acked {
		// Publish the durable watermark as a successor version. Concurrent
		// appenders race here benignly: whoever arrives first publishes a
		// view covering every batch acknowledged so far, and later arrivals
		// find their sequence already included.
		retiredVersion = cur.version
		version = s.publishSuccessorLocked(cur, acked).version
		published = true
	} else {
		version = cur.version
	}
	tail := delta.tailBytes.Load()
	s.mu.Unlock()

	if published {
		s.notifyRetire(name, retiredVersion, RetireMutate)
	}
	if after := s.cfg.CompactAfter; after > 0 && tail >= after {
		s.requestCompact(name)
	}
	return seq, version, nil
}

// publishSuccessorLocked replaces cur with a fresh entry of the same name,
// lineage, and delta log whose view extends through viewSeq. The successor
// is published cold — materialization happens on first Acquire, so a write
// burst costs one O(overlay) merge per version actually read, not per
// batch. It captures cur's layouts (or inherited seed) so that
// materialization can skip the disk, and splice instead of rebuild, when a
// recent ancestor is in memory.
//
// The seed is charged to the resident total on the entry that holds it: a
// resident predecessor's bytes are charged anew (counted twice only while a
// handle still pins the retired predecessor), a cold predecessor's seed moves
// over with its charge, and dropSeedLocked discharges it wherever it is
// cleared. Callers hold s.mu and must notifyRetire(cur) after unlocking.
func (s *Store) publishSuccessorLocked(cur *entry, viewSeq uint64) *entry {
	ne := &entry{
		name:     cur.name,
		vertices: cur.vertices,
		edges:    cur.edges,
		weighted: cur.weighted,
		snapshot: cur.snapshot,
		lineage:  cur.lineage,
		delta:    cur.delta,
		viewSeq:  viewSeq,
		seed:     cur.seed,
	}
	if cur.runner != nil {
		ne.seed = cur.runner.Graph()
		ne.seedBytes = cur.bytes
		s.resident += cur.bytes
		s.seedBytes += cur.bytes
	} else {
		// cur keeps its seed field until it is freed — a loader may be reading
		// it — but no longer its charge.
		ne.seedBytes, cur.seedBytes = cur.seedBytes, 0
	}
	s.nextVersion++
	ne.version = s.nextVersion
	s.retireLocked(cur)
	s.graphs[cur.name] = ne
	ne.lastUsed = s.tick()
	// The successor's counts are inherited metadata until it materializes;
	// Acquire and Compact upgrade the history point to exact counts.
	s.recordViewLocked(ne, false)
	return ne
}
