// Package store owns named graphs end to end for the serving layer: a
// refcounted registry so a graph can be deleted or replaced while in-flight
// queries drain gracefully, versioned binary snapshot persistence under a
// data directory (rehydrated lazily on demand), per-graph memory accounting
// with a configurable byte budget and LRU eviction of idle graphs, and an
// admission controller bounding concurrent queries.
//
// The store sits between the engine (internal/core) and any serving
// front-end (cmd/grazelle serve, or the grazelle facade's Store type):
// lifecycle and capacity live here, protocol adaptation lives above, and
// kernels below. GPOP and Ligra-class frameworks treat partition/graph
// lifecycle as a framework layer rather than application code; this package
// does the same for the Grazelle reproduction.
//
// # Handle lifecycle
//
// Acquire returns a refcounted Handle pinning one version of a named graph.
// Delete and Add (replace) retire the current entry immediately — new
// Acquires no longer see it — but its memory is released only when the last
// Handle closes, so in-flight queries always finish on the exact graph they
// started with. Idle entries (refcount zero) with a snapshot on disk may be
// evicted to stay under the memory budget; they rehydrate transparently on
// the next Acquire.
package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/sched"
)

var (
	// ErrNotFound reports that no graph is registered under the given name.
	ErrNotFound = errors.New("store: graph not found")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
	// ErrOverloaded is the admission controller's rejection sentinel,
	// re-exported so callers need not import internal/sched. Admit's typed
	// *sched.OverloadedError matches it under errors.Is.
	ErrOverloaded = sched.ErrOverloaded
)

// nameRE constrains graph names to filesystem- and URL-safe tokens. The
// leading character excludes "." so path tricks ("..", hidden files) cannot
// be expressed.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// ValidName reports whether name is an acceptable graph name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// Config configures a Store.
type Config struct {
	// DataDir is the snapshot directory. Empty disables persistence:
	// graphs live only in memory and cannot be evicted.
	DataDir string
	// MemBudget caps the resident bytes of loaded graphs and of the seeds
	// unread successors hold (soft: seeds go first, and entries pinned by
	// handles or lacking snapshots are never evicted, so the budget can be
	// exceeded transiently). 0 means unlimited.
	MemBudget int64
	// MaxInFlight bounds concurrently admitted queries; MaxQueue bounds
	// callers waiting for admission beyond that. MaxInFlight 0 disables
	// admission control. The same bound is threaded down to the shared
	// scheduler pool's job cap, so admitted work is exactly the work the
	// pool accepts.
	MaxInFlight, MaxQueue int
	// Workers sizes the shared worker pool every graph's runner executes on
	// (0 = GOMAXPROCS).
	Workers int
	// DeltaBudget soft-caps the bytes of acknowledged, un-compacted edge
	// mutations a graph's delta log may hold: past it ApplyEdges refuses with
	// a *DeltaBudgetError (backpressure; reads keep serving) until compaction
	// folds the tail into the snapshot. 0 means unlimited.
	DeltaBudget int64
	// CompactAfter is the delta-tail size (bytes) at which the background
	// compactor is nudged to fold a graph's mutations into a fresh snapshot.
	// 0 disables size-triggered compaction (explicit Compact still works).
	CompactAfter int64
	// Engine supplies base engine options for every graph's runner. Pool,
	// Workers, Topology, and OnRelease are managed by the store and
	// ignored if set.
	Engine core.Options
}

// Store is a registry of named, preprocessed graphs. All methods are safe
// for concurrent use.
type Store struct {
	cfg  Config
	pool *sched.Pool
	adm  *sched.Admission

	mu     sync.Mutex
	graphs map[string]*entry
	// resident counts the bytes of loaded graphs and of the seeds cold
	// successors hold; seedBytes is the seeds' share of it.
	resident  int64
	seedBytes int64
	clock     uint64
	evictions uint64
	runs      uint64
	closed    bool
	// nextVersion numbers graph versions: every Add (including a replace and
	// the cold registrations at Open), every durable mutation batch, and
	// every compaction gets the next value, so versions are unique and
	// monotonic across the whole store — a version is never reused, even
	// when a name is deleted and re-added.
	nextVersion uint64
	// nextLineage numbers base-graph ancestries (see manifest.go); persisted
	// in the manifest so a lineage is never reused across restarts.
	nextLineage uint64
	// onRetire holds the version-retirement subscribers (see OnRetireReason).
	onRetire []RetireReasonFunc
	// views retains each name's recent version history for DeltaBetween
	// (see incremental.go).
	views map[string]*lineageViews
	// rehydrateRetries counts transient rehydration retries (monotonic);
	// rehydrations counts successful snapshot loads; quarantined counts
	// snapshots moved aside as corrupt; rehydrateStreak is the current run
	// of consecutive exhausted-retry failures feeding Ready.
	rehydrateRetries uint64
	rehydrations     uint64
	quarantined      uint64
	rehydrateStreak  int

	// walc aggregates delta-log activity across all graphs (atomics; see
	// wal.go). compactions/compactErrors count snapshot folds.
	walc          walCounters
	compactions   atomic.Uint64
	compactErrors atomic.Uint64
	// compactCh feeds the background compactor; compactStop ends it and
	// compactDone confirms exit (see compact.go).
	compactCh   chan string
	compactStop chan struct{}
	compactDone chan struct{}
	// foldOwners holds one mutex per graph name: whoever rewrites that
	// name's snapshot file (Compact, Snapshot) holds it from the first byte
	// of the temp file to the end of the log rotation (see foldOwner).
	// Guarded by mu.
	foldOwners map[string]*sync.Mutex

	// reg is the store-owned metric registry (see metrics.go); immutable
	// after Open.
	reg *obs.Registry
	// materialize{Patch,Rebuild,Shared} time Acquire's materialization by
	// the arm that served it (see materialize); their counts feed Stats.
	materializePatch, materializeRebuild, materializeShared *obs.Histogram
}

// entry is one version of a named graph. Fields below the comment are
// guarded by Store.mu; rehydration is additionally serialized by load.
type entry struct {
	name     string
	vertices int
	edges    int
	weighted bool
	snapshot string // absolute snapshot path, "" when none
	// version is the store-wide version number assigned when the entry was
	// registered. Immutable; eviction to cold and rehydration keep it. Only
	// retirement — Add-replace, Delete, a durable mutation batch, or a
	// compaction — ends it.
	version uint64
	// lineage is the base-graph ancestry (immutable; changes only via
	// Add-replace, which creates a new entry). delta is the name's shared
	// mutation log — successor entries of the same lineage share the pointer.
	lineage uint64
	delta   *deltaLog
	// viewSeq is the delta-log sequence number this entry's view includes:
	// Acquire serves the base snapshot merged with acknowledged batches
	// through viewSeq, exclusive of anything later. Immutable — a newer
	// watermark publishes a successor entry.
	viewSeq uint64
	// seed, when set, is a predecessor's layouts captured at publish time:
	// materialization may start from them instead of the disk snapshot
	// because the overlay merge is replay-idempotent (applying the view's
	// full op range to any intermediate merge of a prefix yields
	// bit-identical layouts). It pins as much memory as a resident version
	// until this entry is first read or freed, or the budget drops it.
	// Guarded by load.
	seed *core.Graph
	// seedBytes is what seed is charged to Store.resident (see
	// publishSuccessorLocked). Guarded by Store.mu.
	seedBytes int64

	// load serializes rehydration (single-flight): hold a provisional
	// refcount before locking it so the entry cannot be evicted under the
	// loader.
	load sync.Mutex

	// Guarded by Store.mu.
	refs     int
	retired  bool
	lastUsed uint64
	runs     uint64
	bytes    int64 // resident bytes (0 when cold)
	runner   *core.Runner
	// corrupt is the sticky *CorruptSnapshotError set when rehydration found
	// the snapshot damaged; Acquire returns it without touching disk until a
	// new Add replaces the entry.
	corrupt error
}

// Handle pins one graph version. The runner is captured at acquisition, so
// a Handle keeps working unchanged after the graph is deleted, replaced, or
// evicted; Close releases the pin (and, for retired entries, the memory once
// the last handle is gone). Handles are safe for concurrent use; Close is
// idempotent.
type Handle struct {
	s         *Store
	e         *entry
	runner    *core.Runner
	closeOnce sync.Once
}

// Runner returns the engine runner for this graph version; its Graph is the
// version's layouts.
func (h *Handle) Runner() *core.Runner { return h.runner }

// Name returns the graph's registered name.
func (h *Handle) Name() string { return h.e.name }

// Version returns the store-wide version number of the pinned graph. The
// value is assigned at Add time and is immutable for the entry's lifetime:
// eviction to cold and rehydration keep it, so a (name, version) pair fully
// identifies the graph bytes a query ran against.
func (h *Handle) Version() uint64 { return h.e.version }

// Close releases the handle's pin.
func (h *Handle) Close() {
	h.closeOnce.Do(func() { h.s.release(h.e) })
}

// Open creates a Store. When cfg.DataDir is set, the snapshot manifest is
// read and every persisted graph is registered cold — metadata only, loaded
// lazily on first Acquire.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg, graphs: make(map[string]*entry), views: make(map[string]*lineageViews),
		foldOwners: make(map[string]*sync.Mutex)}
	s.pool = sched.NewPool(cfg.Workers)
	if cfg.MaxInFlight > 0 {
		s.pool.SetMaxActiveJobs(cfg.MaxInFlight)
	}
	s.adm = sched.NewAdmission(cfg.MaxInFlight, cfg.MaxQueue)
	s.registerMetrics()
	fail := func(err error) (*Store, error) {
		s.pool.Close()
		return nil, err
	}
	var needCompact []string
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return fail(err)
		}
		m, err := loadManifest(manifestPath(cfg.DataDir))
		if err != nil {
			return fail(err)
		}
		s.nextLineage = m.NextLineage
		for _, me := range m.Graphs {
			if !ValidName(me.Name) {
				return fail(fmt.Errorf("store: manifest entry has invalid name %q", me.Name))
			}
			if me.Lineage > s.nextLineage {
				s.nextLineage = me.Lineage
			}
		}
		for _, me := range m.Graphs {
			s.nextVersion++
			s.graphs[me.Name] = &entry{
				name:     me.Name,
				vertices: me.Vertices,
				edges:    me.Edges,
				weighted: me.Weighted,
				snapshot: filepath.Join(cfg.DataDir, me.File),
				version:  s.nextVersion,
				lineage:  me.Lineage,
			}
		}
		// Replay each graph's delta log: acknowledged batches become the
		// entry's overlay view, torn tails are truncated, corrupt segments
		// quarantined (with the legible prefix re-logged and scheduled for
		// compaction), and stale-lineage logs discarded.
		for _, e := range s.graphs {
			l, rec, err := openDeltaLog(e.name, filepath.Join(cfg.DataDir, walFileName(e.name)), e.lineage, &s.walc)
			if err != nil {
				return fail(err)
			}
			e.delta = l
			e.viewSeq = l.ackedSeq()
			// Manifest counts describe the base snapshot; they are exact for
			// the served view only when no overlay batches replayed on top.
			s.resetViewsLocked(e, rec.Replayed == 0)
			if rec.NeedCompact {
				needCompact = append(needCompact, e.name)
			}
		}
		s.sweepOrphansLocked()
		if err := s.syncManifestLocked(); err != nil {
			return fail(err)
		}
	}
	s.compactCh = make(chan string, 64)
	s.compactStop = make(chan struct{})
	s.compactDone = make(chan struct{})
	go s.compactLoop()
	for _, name := range needCompact {
		s.requestCompact(name)
	}
	return s, nil
}

// Close marks the store closed and shuts down the shared pool. In-flight
// runs finish (their submitters execute remaining work inline); callers
// should drain queries first. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*deltaLog, 0, len(s.graphs))
	for _, e := range s.graphs {
		if e.delta != nil {
			logs = append(logs, e.delta)
		}
	}
	s.mu.Unlock()
	close(s.compactStop)
	<-s.compactDone
	for _, l := range logs {
		l.close(false)
	}
	s.pool.Close()
	return nil
}

// Admit gates one query through the admission controller, returning a
// release function to call when the query finishes. When the in-flight and
// queue bounds are exhausted it returns a typed *sched.OverloadedError
// matching ErrOverloaded; while queued it honors ctx cancellation.
func (s *Store) Admit(ctx context.Context) (release func(), err error) {
	return s.adm.Acquire(ctx)
}

// runnerOptions derives the per-graph engine options: the store's shared
// pool, default topology, and a release hook that feeds the LRU clock and
// run counters each time a run's ExecContext is recycled.
func (s *Store) runnerOptions(e *entry) core.Options {
	opt := s.cfg.Engine
	opt.Pool = s.pool
	opt.Workers = 0
	opt.Topology = numa.Topology{}
	opt.OnRelease = func() {
		s.mu.Lock()
		e.lastUsed = s.tick()
		e.runs++
		s.runs++
		s.mu.Unlock()
	}
	return opt
}

// tick advances the LRU clock. Callers hold s.mu.
func (s *Store) tick() uint64 {
	s.clock++
	return s.clock
}

// Add registers graph g under name, replacing any existing graph: the old
// entry is retired immediately (its memory is released once the last handle
// closes) and new Acquires see g, which the store takes over and never
// modifies. When a data directory is configured the
// graph is snapshotted before it becomes visible, so a crash never leaves
// the manifest pointing at a missing file.
//
// A replace mints a fresh lineage: the snapshot lands under a new
// lineage-qualified file name and the manifest rename is the commit point,
// after which the old lineage's snapshot and delta log are dead — removed
// here, or detected (stale lineage / orphan) and discarded at the next Open
// if a crash interrupts the cleanup. Mutations previously applied to the
// replaced graph do not carry over; the replacement supersedes them.
func (s *Store) Add(name string, g *core.Graph) error {
	if !ValidName(name) {
		return fmt.Errorf("store: invalid graph name %q", name)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.nextLineage++
	lineage := s.nextLineage
	s.mu.Unlock()

	e := &entry{
		name:     name,
		vertices: g.N,
		edges:    g.Edges,
		weighted: g.Weighted,
		lineage:  lineage,
	}
	e.runner = core.NewRunner(g, s.runnerOptions(e))
	e.bytes = g.MemoryBytes()
	var walPath string
	if s.cfg.DataDir != "" {
		path := filepath.Join(s.cfg.DataDir, snapshotFileName(name, lineage))
		if err := writeSnapshot(path, g); err != nil {
			return fmt.Errorf("store: snapshotting %q: %w", name, err)
		}
		e.snapshot = path
		walPath = filepath.Join(s.cfg.DataDir, walFileName(name))
	}
	e.delta = newDeltaLog(name, walPath, lineage, &s.walc)
	var retired *entry
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if old := s.graphs[name]; old != nil {
			s.retireLocked(old)
			retired = old
		}
		s.nextVersion++
		e.version = s.nextVersion
		s.graphs[name] = e
		s.resident += e.bytes
		e.lastUsed = s.tick()
		s.resetViewsLocked(e, true)
		s.ensureBudgetLocked()
		return s.syncManifestLocked()
	}()
	if retired != nil {
		// The commit point is behind us: the old lineage's delta log and
		// snapshot are unreachable. Remove them (a crash before this is
		// caught by the lineage check and orphan sweep at Open).
		if retired.delta != nil {
			retired.delta.close(true)
		}
		if retired.snapshot != "" && retired.snapshot != e.snapshot {
			os.Remove(retired.snapshot)
		}
		s.notifyRetire(retired.name, retired.version, RetireReplace)
	}
	return err
}

// RetireReason states why a graph version left the registry.
type RetireReason string

const (
	// RetireReplace: a new Add superseded the version (new lineage).
	RetireReplace RetireReason = "replace"
	// RetireDelete: Delete removed the name entirely.
	RetireDelete RetireReason = "delete"
	// RetireMutate: a durable edge-mutation batch advanced the name to a new
	// version whose view includes the batch.
	RetireMutate RetireReason = "mutate"
	// RetireCompact: the compactor folded the delta overlay into a fresh
	// snapshot and republished the name under a new version. The served
	// edge set is bit-identical across this transition.
	RetireCompact RetireReason = "compact"
)

// RetireReasonFunc observes one graph version leaving the registry, and why
// (see OnRetireReason).
type RetireReasonFunc func(name string, version uint64, reason RetireReason)

// OnRetireReason registers fn to be called every time a graph version is
// retired — replaced by a new Add, removed by Delete, superseded by a durable
// mutation batch, or republished by compaction — with the reason.
// Retirement means the (name, version) pair will never be served again (new
// Acquires only see newer versions), so any state derived from it — most
// importantly cached query results — can be dropped. Eviction to cold does
// not retire: the entry keeps its version across rehydration.
//
// fn runs synchronously on the goroutine performing the retirement, after
// the registry update, with no store locks held; it must be safe for
// concurrent use. Register subscribers before serving traffic.
func (s *Store) OnRetireReason(fn RetireReasonFunc) {
	s.mu.Lock()
	s.onRetire = append(s.onRetire, fn)
	s.mu.Unlock()
}

// notifyRetire invokes the retirement subscribers without holding s.mu.
func (s *Store) notifyRetire(name string, version uint64, reason RetireReason) {
	s.mu.Lock()
	subs := s.onRetire
	s.mu.Unlock()
	for _, fn := range subs {
		fn(name, version, reason)
	}
}

// Version returns the current version number of the named graph without
// loading it: the lookup is metadata-only, so a cold (evicted) graph is not
// rehydrated. The pair (name, Version) is the cache key prefix for
// version-addressable query results.
func (s *Store) Version(name string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	e := s.graphs[name]
	if e == nil {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e.version, nil
}

// Acquire returns a refcounted handle on the named graph, rehydrating it
// from its snapshot when cold. Concurrent Acquires of a cold graph load it
// once (single-flight).
func (s *Store) Acquire(name string) (*Handle, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e := s.graphs[name]
	if e == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The provisional reference keeps the entry from being evicted or
	// freed while we (or a concurrent loader) rehydrate it.
	e.refs++
	e.lastUsed = s.tick()
	s.mu.Unlock()

	e.load.Lock()
	if e.runner == nil {
		if ce := e.corrupt; ce != nil {
			// Sticky: the snapshot was quarantined; only a new Add heals.
			e.load.Unlock()
			s.release(e)
			return nil, ce
		}
		g, err := s.materialize(e)
		if err != nil {
			e.load.Unlock()
			s.release(e)
			return nil, err
		}
		runner := core.NewRunner(g, s.runnerOptions(e))
		bytes := g.MemoryBytes()
		s.mu.Lock()
		e.runner, e.bytes = runner, bytes
		s.dropSeedLocked(e)
		e.vertices, e.edges = g.N, g.Edges
		s.refreshViewCountsLocked(e)
		s.resident += bytes
		s.ensureBudgetLocked()
		s.mu.Unlock()
	}
	h := &Handle{s: s, e: e, runner: e.runner}
	e.load.Unlock()
	return h, nil
}

// patchMaxShare is the largest share of a predecessor's edge slots the
// touched groups may hold (core.PatchShare) for materialize to splice rather
// than rebuild; both arms produce the same bytes, so it sets time only.
// Measured on the T analog (N = 32 768, E = 1.44 M, uniform random inserts,
// the rebuild fed from the seed's CSR): the splice costs a quarter of a
// rebuild at a 3 % share, under half at 40 %, four fifths at 1.1, and the two
// cross between 1.2 and 1.35 (the share passes 1 because each op adds its
// own slots).
const patchMaxShare = 1.2

// materialize produces e's layouts: a base — a predecessor's layouts when
// they were captured at publish time, the disk snapshot otherwise — merged
// with the delta log's acknowledged operations through e.viewSeq. Whichever
// arm produces them, the layouts are byte-identical to core.BuildGraph of
// the single-threaded canonical merge graph.ApplyEdgeOps, so the result is a
// plain graph the engine runs like any other: bit-determinism at any worker
// count is inherited, not re-proven. Replay idempotence makes the two base
// choices equivalent — re-applying operations a seed already contains
// changes nothing.
//
// Three arms, chosen only from what is in hand. No operations to apply over
// a seed (a compaction successor): the seed IS this version, shared
// outright. A seed and a batch whose touched groups hold at most
// patchMaxShare of the edges: core.PatchGraph splices the layouts out of the
// seed's. Otherwise — no seed (cold start, recovery, evicted predecessor) or
// a batch that rewrites most groups anyway — core.BuildGraph over the merge
// of the snapshot's edges, or of the edges the seed's CSR holds, with one
// log line saying why. The caller holds e.load.
func (s *Store) materialize(e *entry) (*core.Graph, error) {
	start := time.Now()
	var ops []graph.EdgeOp
	if e.delta != nil {
		ops = e.delta.opsThrough(e.viewSeq)
	}
	cg := e.seed
	var g *graph.Graph // the rebuild's edges
	var why string     // why it does not splice
	switch {
	case cg == nil:
		var err error
		if g, err = s.rehydrate(e); err != nil {
			return nil, err
		}
		why = "no predecessor in memory"
	case len(ops) == 0:
		s.materializeShared.Observe(time.Since(start).Seconds())
		return cg, nil
	default:
		share := core.PatchShare(cg, ops)
		if share <= patchMaxShare {
			cg = core.PatchGraph(cg, ops)
			s.materializePatch.Observe(time.Since(start).Seconds())
			return cg, nil
		}
		g = cg.CSR.ToGraph()
		why = fmt.Sprintf("touched groups hold %.0f%% of the edge slots, over %.0f%%", 100*share, 100*patchMaxShare)
	}
	if len(ops) > 0 {
		g = graph.ApplyEdgeOps(g, ops)
	}
	cg = core.BuildGraph(g)
	slog.Info("store: materialized by full rebuild", "graph", e.name, "version", e.version,
		"ops", len(ops), "reason", why)
	s.materializeRebuild.Observe(time.Since(start).Seconds())
	return cg, nil
}

// Delete unregisters the named graph and removes its snapshot. In-flight
// handles keep working; memory is released when the last one closes.
func (s *Store) Delete(name string) error {
	var retired *entry
	err := func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		e := s.graphs[name]
		if e == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		delete(s.graphs, name)
		s.retireLocked(e)
		s.dropViewsLocked(name)
		retired = e
		if e.snapshot != "" {
			os.Remove(e.snapshot)
			e.snapshot = ""
		}
		return s.syncManifestLocked()
	}()
	if retired != nil {
		if retired.delta != nil {
			retired.delta.close(true)
		}
		s.notifyRetire(retired.name, retired.version, RetireDelete)
	}
	return err
}

// Snapshot persists the named graph's current version to the data
// directory immediately (Add already does this; Snapshot re-persists on
// demand, e.g. after a manifest repair).
func (s *Store) Snapshot(name string) error {
	if s.cfg.DataDir == "" {
		return errors.New("store: no data directory configured")
	}
	// Owner first, view second: a view acquired before waiting out a fold
	// would overwrite that fold's base with batches missing that its log
	// rotation has already dropped.
	owner := s.foldOwner(name)
	owner.Lock()
	defer owner.Unlock()
	h, err := s.Acquire(name)
	if err != nil {
		return err
	}
	defer h.Close()
	path := filepath.Join(s.cfg.DataDir, snapshotFileName(name, h.e.lineage))
	if err := writeSnapshot(path, h.runner.Graph()); err != nil {
		return fmt.Errorf("store: snapshotting %q: %w", name, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur := s.graphs[name]; cur == h.e {
		cur.snapshot = path
	}
	return s.syncManifestLocked()
}

// retireLocked marks an entry dead to new Acquires and frees it now if
// idle. Callers hold s.mu.
func (s *Store) retireLocked(e *entry) {
	e.retired = true
	if e.refs == 0 {
		s.freeLocked(e)
	}
}

// release drops one handle reference, freeing a retired entry when the last
// reference disappears.
func (s *Store) release(e *entry) {
	s.mu.Lock()
	e.refs--
	e.lastUsed = s.tick()
	if e.retired && e.refs == 0 {
		s.freeLocked(e)
	}
	s.mu.Unlock()
}

// freeLocked drops an entry's resident state (runner, accounting).
// For registry entries this is eviction to cold; for retired entries it is
// the final release. Callers hold s.mu and guarantee refs == 0.
func (s *Store) freeLocked(e *entry) {
	if e.runner != nil {
		e.runner.Close()
	}
	s.resident -= e.bytes
	e.bytes = 0
	e.runner = nil
	s.dropSeedLocked(e)
}

// dropSeedLocked clears e's seed and discharges its bytes from the resident
// total. Callers hold s.mu, and either e.load or refs == 0 (no loader is
// reading the seed).
func (s *Store) dropSeedLocked(e *entry) {
	e.seed = nil
	s.resident -= e.seedBytes
	s.seedBytes -= e.seedBytes
	e.seedBytes = 0
}

// idleSeedLocked returns the least recently used registered entry whose seed
// the budget may drop: nobody is materializing from it, and the entry has a
// snapshot to rebuild from without it. Callers hold s.mu.
func (s *Store) idleSeedLocked() *entry {
	var oldest *entry
	for _, e := range s.graphs {
		if e.seed == nil || e.refs != 0 || e.snapshot == "" {
			continue
		}
		if oldest == nil || e.lastUsed < oldest.lastUsed {
			oldest = e
		}
	}
	return oldest
}

// ensureBudgetLocked brings the resident total under the budget. Idle seeds
// go first, oldest first: dropping one costs the next read of its version a
// rebuild from its snapshot instead of a splice, where evicting a graph costs
// a rehydration and a rebuild. Then least-recently-used idle entries are
// evicted. Entries pinned by handles (including the provisional reference an
// in-progress Acquire holds), already cold, or lacking any path back from
// disk are never evicted, so the budget is soft. Callers hold s.mu.
func (s *Store) ensureBudgetLocked() {
	if s.cfg.MemBudget <= 0 {
		return
	}
	for s.resident > s.cfg.MemBudget {
		if e := s.idleSeedLocked(); e != nil {
			s.dropSeedLocked(e)
			continue
		}
		var victim *entry
		for _, e := range s.graphs {
			if e.refs != 0 || e.runner == nil {
				continue
			}
			if e.snapshot == "" && s.cfg.DataDir == "" {
				continue // nothing to rehydrate from
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		if victim.snapshot == "" {
			// Spill to disk before dropping the only copy.
			path := filepath.Join(s.cfg.DataDir, snapshotFileName(victim.name, victim.lineage))
			if err := writeSnapshot(path, victim.runner.Graph()); err != nil {
				return
			}
			victim.snapshot = path
			s.syncManifestLocked()
		}
		s.freeLocked(victim)
		s.evictions++
	}
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Weighted bool   `json:"weighted"`
	// Version is the store-wide version number of the current entry; it
	// changes on every Add (replace) and is never reused.
	Version uint64 `json:"version"`
	// Resident reports whether the graph is loaded in memory;
	// MemoryBytes is its resident footprint (0 when cold).
	Resident    bool  `json:"resident"`
	MemoryBytes int64 `json:"memory_bytes"`
	// Snapshotted reports whether a snapshot exists on disk.
	Snapshotted bool `json:"snapshotted"`
	// Quarantined reports that the graph's snapshot was found corrupt and
	// moved aside; Acquire fails until the graph is re-added.
	Quarantined bool `json:"quarantined,omitempty"`
	// Refs counts open handles; Runs counts completed engine runs on the
	// current version.
	Refs int    `json:"refs"`
	Runs uint64 `json:"runs"`
	// DeltaBatches/DeltaBytes describe the acknowledged, un-compacted
	// mutation tail overlaid on the base snapshot; WALWedged reports that
	// the graph's delta log is refusing writes pending a heal.
	DeltaBatches int64 `json:"delta_batches,omitempty"`
	DeltaBytes   int64 `json:"delta_bytes,omitempty"`
	WALWedged    bool  `json:"wal_wedged,omitempty"`
}

// List returns every registered graph, sorted by name.
func (s *Store) List() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		gi := GraphInfo{
			Name:        e.name,
			Vertices:    e.vertices,
			Edges:       e.edges,
			Weighted:    e.weighted,
			Version:     e.version,
			Resident:    e.runner != nil,
			MemoryBytes: e.bytes,
			Snapshotted: e.snapshot != "",
			Quarantined: e.corrupt != nil,
			Refs:        e.refs,
			Runs:        e.runs,
		}
		if e.delta != nil {
			gi.DeltaBatches = e.delta.tailBatches.Load()
			gi.DeltaBytes = e.delta.tailBytes.Load()
			gi.WALWedged = e.delta.wedgedFlag.Load() != 0
		}
		out = append(out, gi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats summarizes the store's load.
type Stats struct {
	// Graphs counts registered names; Resident counts those loaded in
	// memory. BytesResident, held against MemBudget (0 = unlimited), counts
	// them and the seeds — a predecessor's layouts a cold successor keeps to
	// splice from — of which BytesSeeds is the seeds' share.
	Graphs        int   `json:"graphs"`
	Resident      int   `json:"resident"`
	BytesResident int64 `json:"bytes_resident"`
	BytesSeeds    int64 `json:"bytes_seeds"`
	MemBudget     int64 `json:"mem_budget"`
	// InFlight and Queued are current admission occupancy against the
	// configured bounds; Rejected counts overload refusals.
	InFlight    int    `json:"in_flight"`
	Queued      int    `json:"queued"`
	MaxInFlight int    `json:"max_in_flight"`
	MaxQueue    int    `json:"max_queue"`
	Rejected    uint64 `json:"rejected"`
	// Evictions counts budget evictions; Runs counts completed engine runs.
	Evictions uint64 `json:"evictions"`
	Runs      uint64 `json:"runs"`
	// RehydrateRetries counts transient snapshot-load retries; Rehydrations
	// counts successful snapshot loads; Quarantined counts snapshots moved
	// aside as corrupt; PoolPanics counts panics the worker pool contained.
	RehydrateRetries uint64 `json:"rehydrate_retries"`
	Rehydrations     uint64 `json:"rehydrations"`
	Quarantined      uint64 `json:"quarantined"`
	PoolPanics       uint64 `json:"pool_panics"`
	// WAL summarizes the streaming-mutation subsystem across all graphs.
	WAL WALStats `json:"wal"`
	// Materialize counts first reads of a version by how its layouts were
	// produced — the counts of grazelle_store_materialize_seconds.
	Materialize MaterializeStats `json:"materialize"`
}

// MaterializeStats counts materializations by arm: Patch spliced the
// layouts out of the predecessor's, Shared reused the predecessor's outright
// (nothing to apply), Rebuild ran the full preprocessing.
type MaterializeStats struct {
	Patch   uint64 `json:"patch"`
	Rebuild uint64 `json:"rebuild"`
	Shared  uint64 `json:"shared"`
}

// WALStats summarizes delta-log and compaction activity. The counter cells
// are the same atomics the grazelle_wal_* metric families render, so the
// two views always agree.
type WALStats struct {
	// Appends counts acknowledged (durable) mutation batches; AppendErrors
	// counts rejected or rolled-back ones.
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Fsyncs counts group commits; one fsync may acknowledge many batches.
	Fsyncs      uint64 `json:"fsyncs"`
	FsyncErrors uint64 `json:"fsync_errors"`
	// ReplayedBatches counts batches recovered from disk at open; TornTails
	// and QuarantinedSegments count the repairs made along the way.
	ReplayedBatches     uint64 `json:"replayed_batches"`
	TornTails           uint64 `json:"torn_tails"`
	QuarantinedSegments uint64 `json:"quarantined_segments"`
	// Rotations counts log rewrites (compaction and healing); Healed counts
	// wedged logs recovered.
	Rotations uint64 `json:"rotations"`
	Healed    uint64 `json:"healed"`
	// Wedged counts graphs currently refusing writes; TailBytes/TailBatches
	// total the acknowledged un-compacted overlay across graphs.
	Wedged      int   `json:"wedged"`
	TailBytes   int64 `json:"tail_bytes"`
	TailBatches int64 `json:"tail_batches"`
	// Compactions counts overlay folds into fresh snapshots; CompactErrors
	// counts failed attempts (retried with backoff).
	Compactions   uint64 `json:"compactions"`
	CompactErrors uint64 `json:"compact_errors"`
}

// Stats returns a consistent snapshot of the store's load.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Graphs:        len(s.graphs),
		BytesResident: s.resident,
		BytesSeeds:    s.seedBytes,
		MemBudget:     s.cfg.MemBudget,
		InFlight:      s.adm.InFlight(),
		Queued:        s.adm.Queued(),
		MaxInFlight:   s.adm.MaxInFlight(),
		MaxQueue:      s.adm.MaxQueue(),
		Rejected:      s.adm.Rejected(),
		Evictions:     s.evictions,
		Runs:          s.runs,

		RehydrateRetries: s.rehydrateRetries,
		Rehydrations:     s.rehydrations,
		Quarantined:      s.quarantined,
		PoolPanics:       s.pool.Panics(),
	}
	for _, e := range s.graphs {
		if e.runner != nil {
			st.Resident++
		}
	}
	st.WAL = s.walStatsLocked()
	st.Materialize = MaterializeStats{
		Patch:   s.materializePatch.Count(),
		Rebuild: s.materializeRebuild.Count(),
		Shared:  s.materializeShared.Count(),
	}
	return st
}

// walStatsLocked assembles the WAL summary: counters from the shared cells,
// gauges by scanning each graph's delta log mirrors. Callers hold s.mu.
func (s *Store) walStatsLocked() WALStats {
	w := WALStats{
		Appends:             s.walc.appends.Load(),
		AppendErrors:        s.walc.appendErrors.Load(),
		Fsyncs:              s.walc.fsyncs.Load(),
		FsyncErrors:         s.walc.fsyncErrors.Load(),
		ReplayedBatches:     s.walc.replayed.Load(),
		TornTails:           s.walc.tornTails.Load(),
		QuarantinedSegments: s.walc.quarantined.Load(),
		Rotations:           s.walc.rotations.Load(),
		Healed:              s.walc.healed.Load(),
		Compactions:         s.compactions.Load(),
		CompactErrors:       s.compactErrors.Load(),
	}
	for _, e := range s.graphs {
		if e.delta == nil {
			continue
		}
		w.TailBytes += e.delta.tailBytes.Load()
		w.TailBatches += e.delta.tailBatches.Load()
		if e.delta.wedgedFlag.Load() != 0 {
			w.Wedged++
		}
	}
	return w
}
