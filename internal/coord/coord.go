// Package coord owns the per-iteration schedule of a graph run: the order
// of the Edge phase, the ordered merge, the Vertex phase, the frontier
// exchange, and the convergence vote. It is the transport-agnostic seam the
// ROADMAP's scale-out item asks for — the engine (internal/core) binds its
// generic kernels into an Iteration closure bundle, and a Coordinator
// decides which spans of the work grid run where and when partitions talk.
//
// Two coordinators exist today. LocalCoordinator replays the monolithic
// schedule bit-for-bit. PartitionedCoordinator splits the run into P
// partitions via the promoted internal/numa Plan and scatter-gathers each
// phase across per-partition spans (GPOP-style blocking), handing the next
// frontier between partitions at the barrier.
//
// Determinism contract: a coordinator may choose *where* work runs but
// never *how it folds*. Spans partition the global chunk-id grid, chunk
// ranges and merge-buffer slots are identical to a monolithic run, and the
// ordered merge runs once at the gather barrier — so partitioned output is
// bit-identical to monolithic output for any P (see DESIGN.md §13).
package coord

import (
	"context"
	"time"
)

// Direction is the per-iteration Edge-phase direction — a property of the
// schedule, owned by the coordinator (Besta et al., "To Push or To Pull").
type Direction int

const (
	// DirPull runs Edge-Pull: every destination aggregates over in-edges.
	DirPull Direction = iota
	// DirPush runs Edge-Push: active sources scatter over out-edges.
	DirPush
	// DirSparse runs the fused list-driven round (push over the frontier's
	// vertex list only).
	DirSparse
)

// Mark returns the direction's single-character trace encoding: '<' pull,
// '>' push, 's' sparse.
func (d Direction) Mark() byte {
	switch d {
	case DirPull:
		return '<'
	case DirPush:
		return '>'
	default:
		return 's'
	}
}

// Span is one partition's slice of a phase's work grid: chunk ids for the
// edge and vertex phases. Lo == Hi is an empty span and does no work.
type Span struct {
	Part   int
	Lo, Hi int
}

// Status is the engine's report at the top of an iteration — the inputs to
// the convergence vote and the direction decision.
type Status struct {
	// Stop ends the run: the program converged, the frontier emptied, the
	// context was cancelled, or a chunk panicked.
	Stop bool
	// UsesFrontier reports whether the program is frontier-driven; blind
	// programs always pull and never exchange.
	UsesFrontier bool
	// Density is the frontier density in [0,1] (1 for frontier-blind
	// programs).
	Density float64
	// DegreeShare lazily computes the frontier's out-degree sum as a share
	// of total edges — the Besta et al. degree-sum term. It is only invoked
	// when the density test alone would choose push, so the O(frontier)
	// walk is paid exactly when the decision is in doubt. Nil when unknown
	// or when the program's pull scan has no early exit, the case the term
	// pays for.
	DegreeShare func() float64
	// SparseOK reports that this iteration's frontier fits the list-driven
	// round's budget.
	SparseOK bool
	// InPlace reports that a pull round this iteration runs on the engine's
	// coarse in-place grid (PartitionedCoordinator.InPlacePull) instead of
	// the plan's.
	InPlace bool
}

// PullDensity is the classic density term of the hybrid policy: pull when
// frontier density ≥ this (1/20 of vertices active).
const PullDensity = 0.05

// Policy decides the per-iteration direction from the iteration status.
type Policy struct {
	// PullOnly / PushOnly force a direction (core's EngineMode pins);
	// neither set means hybrid.
	PullOnly, PushOnly bool
	// DegreeShareThreshold is the degree-sum term: pull when the
	// frontier's out-edges are at least this share of all edges, even at
	// low vertex density — a few hubs can put most of the edge set in
	// play, and pull's sequential gather beats push's scattered CAS there.
	// ≤ 0 disables the term.
	DegreeShareThreshold float64
}

// Choose picks this iteration's direction. The list-driven round, when its
// budget holds, wins outright (the budget already proved the frontier
// tiny); the engine pins come next; then density, then degree share, and
// otherwise the dense-scan push. All three outcomes occur on the
// direction-rule sweep in EXPERIMENTS.md.
func (p Policy) Choose(st Status) Direction {
	if st.SparseOK {
		return DirSparse
	}
	if p.PullOnly {
		return DirPull
	}
	if p.PushOnly {
		return DirPush
	}
	if !st.UsesFrontier {
		return DirPull
	}
	if st.Density >= PullDensity {
		return DirPull
	}
	if p.DegreeShareThreshold > 0 && st.DegreeShare != nil &&
		st.DegreeShare() >= p.DegreeShareThreshold {
		return DirPull
	}
	return DirPush
}

// Iteration binds one run's engine callbacks. The coordinator never sees
// program types or accumulator layouts — only these closures, which the
// engine constructs per run with its generic kernels devirtualized inside.
// The monolithic closures (Begin through End) are always bound; the engine
// binds the partitioned set (EdgeBegin through Publish) only when the run
// is partitioned.
type Iteration struct {
	// Begin starts an iteration: program PreIteration plus the frontier
	// census feeding the convergence vote and the direction policy.
	Begin func() Status
	// Sparse runs one fused list-driven round (edge scatter over the
	// frontier list + vertex apply over the touched list, including the
	// frontier publish). Only called when Status.SparseOK.
	Sparse func()

	// EdgeFull and VertexFull are the monolithic executors: the full-grid
	// edge phase including its ordered merge, and the full vertex phase
	// including the frontier publish. LocalCoordinator's whole schedule.
	EdgeFull   func(dir Direction)
	VertexFull func()

	// The partitioned executors. EdgeBegin/EdgeDone bracket the edge
	// scatter-gather on the driver goroutine (pre-growing shared buffers,
	// then folding the ordered merge); EdgeSpan runs one partition's chunk
	// span and is safe to call concurrently for disjoint spans. Vertex*
	// mirror the structure for the vertex phase, without the publish.
	EdgeBegin   func(dir Direction)
	EdgeSpan    func(dir Direction, s Span)
	EdgeDone    func(dir Direction)
	VertexBegin func()
	VertexSpan  func(s Span)
	VertexDone  func()

	// Publish installs the next frontier, which the spans wrote into the
	// shared bitmap, as the next iteration's input.
	Publish func()

	// End closes the iteration's bookkeeping (counters, direction trace)
	// with the direction that ran.
	End func(dir Direction)
}

// PartitionStat aggregates one partition's execution over a run.
type PartitionStat struct {
	Part          int
	EdgeWall      time.Duration
	VertexWall    time.Duration
	ExchangeBytes int64
	Spans         int
}

// Coordinator drives a run's iteration schedule.
type Coordinator interface {
	// Run iterates until the engine's Status stops it or maxIters is
	// reached. A non-nil error aborts the run (today: a failed or cancelled
	// partitioned barrier); engine-internal failures surface through
	// Status.Stop and the engine's own error channel instead.
	Run(ctx context.Context, it Iteration, maxIters int) error
	// Partitions returns the partition count of the schedule (1 for the
	// monolithic path).
	Partitions() int
	// PartitionStats returns per-partition aggregates for the last Run;
	// nil for the monolithic path.
	PartitionStats() []PartitionStat
}
