package grazelle

import (
	"context"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// This file re-exports the graph store subsystem (internal/store) through
// the facade: a registry of named graphs with refcounted handles, snapshot
// persistence, a memory budget with LRU eviction, and admission control —
// the state behind `grazelle serve`.

// Store lifecycle and capacity errors. ErrOverloaded matches the typed
// admission error Store.Admit returns under errors.Is; ErrCorruptGraph
// matches any deserialization failure caused by damaged data (including a
// *CorruptSnapshotError).
var (
	ErrGraphNotFound = store.ErrNotFound
	ErrStoreClosed   = store.ErrClosed
	ErrOverloaded    = store.ErrOverloaded
	ErrCorruptGraph  = graph.ErrCorrupt
	// ErrMutationConflict reports a mutation batch that raced an Add-replace
	// or Delete of its graph and was not applied; retry against the new graph
	// if still meaningful.
	ErrMutationConflict = store.ErrMutationConflict
)

// Fault-containment types, re-exported from the internal layers.
type (
	// PanicError is a panic captured inside an engine run and converted into
	// an error: the run fails alone, the pool and sibling runs survive. It
	// carries the original panic value and stack.
	PanicError = sched.PanicError
	// CorruptSnapshotError reports a snapshot that failed validation and was
	// quarantined (sticky until the graph is re-added).
	CorruptSnapshotError = store.CorruptSnapshotError
	// RehydrateError reports a snapshot load that kept failing transiently
	// after its retries (not sticky; the next Acquire retries).
	RehydrateError = store.RehydrateError

	// EdgeOp is one streaming edge mutation: an insert/re-weight (Delete
	// false) or removal (Delete true) of the directed edge Src→Dst. Within a
	// batch the last op for a (Src, Dst) pair wins.
	EdgeOp = graph.EdgeOp
	// DeltaBudgetError reports a mutation batch refused because the graph's
	// un-compacted overlay is over budget; compaction has been scheduled and
	// the write should be retried shortly (HTTP layers map it to 429).
	DeltaBudgetError = store.DeltaBudgetError
	// WALWedgedError reports a mutation batch refused because the graph's
	// delta log is wedged after an unrecoverable sync failure; healing
	// retries in the background and reads keep serving (HTTP: 503).
	WALWedgedError = store.WALWedgedError
	// WALStats summarizes streaming-mutation durability in StoreStats.
	WALStats = store.WALStats
	// RetireReason says why a graph version was retired; see the Retire*
	// constants.
	RetireReason = store.RetireReason
)

// Reasons passed to OnRetireReason callbacks.
const (
	RetireReplace = store.RetireReplace // Add replaced the graph
	RetireDelete  = store.RetireDelete  // Delete removed the graph
	RetireMutate  = store.RetireMutate  // ApplyEdges published a successor
	RetireCompact = store.RetireCompact // compaction folded the overlay
)

// StoreConfig configures a Store.
type StoreConfig struct {
	// DataDir is the snapshot directory; graphs added to the store are
	// persisted there and reload lazily when the store is reopened. Empty
	// disables persistence.
	DataDir string
	// MemBudgetBytes soft-caps resident graph memory, counting the
	// predecessor state an unread mutated version keeps to splice from:
	// beyond the budget that state is dropped first (the version's first
	// read then rebuilds), then idle graphs are evicted (least recently used
	// first) and rehydrate from their snapshots on demand. 0 means
	// unlimited.
	MemBudgetBytes int64
	// MaxInFlight bounds concurrently admitted queries and the worker
	// pool's concurrent jobs; MaxQueue bounds callers waiting beyond that.
	// 0 disables admission control.
	MaxInFlight, MaxQueue int
	// Workers sizes the one worker pool all graphs share (0 = GOMAXPROCS).
	Workers int
	// DeltaBudgetBytes caps the acknowledged un-compacted mutation overlay
	// per graph: past it ApplyEdges returns a *DeltaBudgetError (and
	// schedules compaction) until the overlay is folded. 0 means unlimited.
	DeltaBudgetBytes int64
	// CompactAfterBytes triggers background compaction once a graph's
	// overlay passes this size. 0 disables size-triggered compaction
	// (explicit Compact calls still work).
	CompactAfterBytes int64
	// Options supplies engine options for every graph's runner. Workers and
	// Sockets are ignored: the store's shared pool runs a single-node
	// topology.
	Options Options
}

// Store is a registry of named graphs sharing one worker pool. All methods
// are safe for concurrent use; see internal/store for the lifecycle
// contract (handles pin graph versions across delete/replace/eviction).
type Store struct {
	s *store.Store
}

// OpenStore opens a Store, registering any graphs persisted under
// cfg.DataDir (cold — loaded on first Acquire).
func OpenStore(cfg StoreConfig) (*Store, error) {
	s, err := store.Open(store.Config{
		DataDir:      cfg.DataDir,
		MemBudget:    cfg.MemBudgetBytes,
		MaxInFlight:  cfg.MaxInFlight,
		MaxQueue:     cfg.MaxQueue,
		Workers:      cfg.Workers,
		DeltaBudget:  cfg.DeltaBudgetBytes,
		CompactAfter: cfg.CompactAfterBytes,
		Engine:       cfg.Options.coreOptions(),
	})
	if err != nil {
		return nil, err
	}
	return &Store{s: s}, nil
}

// Close shuts the store down. Drain queries first; Close is idempotent.
func (s *Store) Close() error { return s.s.Close() }

// Add registers g under name, replacing any existing graph of that name;
// queries holding handles on the old version drain undisturbed. With a data
// directory configured the graph is snapshotted before it becomes visible.
func (s *Store) Add(name string, g *Graph) error { return s.s.Add(name, g.core) }

// AddFromFile loads a binary graph file (see Graph.Save / cmd/gengraph)
// directly into the store.
func (s *Store) AddFromFile(name, path string) error {
	g, err := LoadGraph(path)
	if err != nil {
		return err
	}
	return s.Add(name, g)
}

// Delete unregisters the named graph and removes its snapshot; in-flight
// handles drain undisturbed.
func (s *Store) Delete(name string) error { return s.s.Delete(name) }

// Snapshot re-persists the named graph to the data directory on demand.
func (s *Store) Snapshot(name string) error { return s.s.Snapshot(name) }

// Version returns the named graph's current version. Versions are minted
// monotonically per store and never reused: Add-replace assigns a fresh one,
// while eviction to cold and rehydration keep it. The lookup is metadata-only
// — it never rehydrates a cold graph. A (name, version, query) triple fully
// addresses a result, which is what makes query caching sound.
func (s *Store) Version(name string) (uint64, error) { return s.s.Version(name) }

// OnRetireReason registers fn to be called, with the cause, whenever a graph
// version is retired — replaced by Add, removed by Delete, superseded by
// ApplyEdges, or folded by compaction (eviction does not retire). Callbacks
// run outside store locks and must be safe for concurrent use. Cache layers
// use the reason to keep seed candidates across same-lineage retirements
// (mutate, compact) and drop them when the lineage ends (replace, delete).
func (s *Store) OnRetireReason(fn func(name string, version uint64, reason RetireReason)) {
	s.s.OnRetireReason(fn)
}

// ApplyEdges applies one batch of edge mutations to the named graph. The
// batch is durable (WAL-fsynced, when a data directory is configured) and
// visible to subsequent Acquires under the returned new version before
// ApplyEdges returns; handles already held keep serving their pinned
// versions. Within a batch the last op per (src, dst) pair wins. Returns the
// batch's WAL sequence and the new graph version, or a typed error:
// *DeltaBudgetError (overlay over budget; retry after compaction),
// *WALWedgedError (delta log wedged; healing in background), or
// ErrMutationConflict (raced a replace/delete).
func (s *Store) ApplyEdges(name string, ops []EdgeOp) (seq, version uint64, err error) {
	return s.s.ApplyEdges(name, ops)
}

// Compact folds the named graph's acknowledged mutation overlay into a fresh
// base snapshot and truncates its delta log. Serving bits are unchanged —
// the successor version is bit-identical — so compaction can run any time.
// It also runs in the background past CompactAfterBytes.
func (s *Store) Compact(name string) error { return s.s.Compact(name) }

// StoreGraphInfo describes one registered graph.
type StoreGraphInfo = store.GraphInfo

// List returns every registered graph, sorted by name.
func (s *Store) List() []StoreGraphInfo { return s.s.List() }

// StoreStats summarizes store load: graphs registered/resident, bytes
// against budget, and admission occupancy.
type StoreStats = store.Stats

// Stats returns a consistent snapshot of store load.
func (s *Store) Stats() StoreStats { return s.s.Stats() }

// Registry is a metric registry with Prometheus text exposition.
type Registry = obs.Registry

// Metrics returns the store's metric registry: gauges and counters over the
// graph registry, scheduler pool and admission controller. The
// counters are the same cells Stats reports, so the two views always agree.
// Serving layers render it at /metrics and may register additional families.
func (s *Store) Metrics() *Registry { return s.s.Metrics() }

// Admit gates one query through the admission controller; call the returned
// release when the query finishes. Overload returns an error matching
// ErrOverloaded; while queued, ctx cancellation is honored.
func (s *Store) Admit(ctx context.Context) (release func(), err error) {
	return s.s.Admit(ctx)
}

// Ready reports whether the store can usefully serve: nil when healthy,
// ErrStoreClosed after Close, or a degraded-state error while snapshot
// rehydration is persistently failing. Serving layers map a non-nil result
// to an unready health check.
func (s *Store) Ready() error { return s.s.Ready() }

// StoreHandle pins one version of a named graph and exposes an Engine bound
// to it. The handle (and its engine) keeps working after the graph is
// deleted, replaced, or evicted; Close releases the pin. Do not call the
// engine's Close — the store owns the worker pool.
type StoreHandle struct {
	h *store.Handle
	e *Engine
}

// Acquire returns a handle on the named graph, rehydrating it from its
// snapshot when cold.
func (s *Store) Acquire(name string) (*StoreHandle, error) {
	h, err := s.s.Acquire(name)
	if err != nil {
		return nil, err
	}
	return &StoreHandle{h: h, e: engineFor(h)}, nil
}

// engineFor adapts a store handle into a facade Engine sharing the store's
// pool and the handle's preprocessed graph.
func engineFor(h *store.Handle) *Engine {
	return &Engine{
		g: &Graph{core: h.Runner().Graph()},
		r: h.Runner(),
	}
}

// Engine returns the engine bound to this graph version.
func (h *StoreHandle) Engine() *Engine { return h.e }

// Graph returns the pinned graph.
func (h *StoreHandle) Graph() *Graph { return h.e.g }

// Name returns the graph's registered name.
func (h *StoreHandle) Name() string { return h.h.Name() }

// Version returns the store version this handle pins. It is stable for the
// handle's lifetime, even after the graph is replaced or deleted.
func (h *StoreHandle) Version() uint64 { return h.h.Version() }

// Close releases the handle's pin. Idempotent.
func (h *StoreHandle) Close() { h.h.Close() }
