package obs

import "time"

// Phase identifies one engine phase within an iteration. The set mirrors the
// paper's runtime decomposition: the Edge phase (pull or push flavor), the
// Vertex phase, and the merge step that folds per-thread partial state
// (merge buffers in pull mode, ordered scatter buffers in push mode).
type Phase uint8

const (
	PhaseEdgePull Phase = iota
	PhaseEdgePush
	PhaseVertex
	PhaseMerge
	// NumPhases is the number of distinct phases; usable as an array size.
	NumPhases
)

// String returns the stable wire name used in JSON traces and metric labels.
func (p Phase) String() string {
	switch p {
	case PhaseEdgePull:
		return "edge-pull"
	case PhaseEdgePush:
		return "edge-push"
	case PhaseVertex:
		return "vertex"
	case PhaseMerge:
		return "merge"
	default:
		return "unknown"
	}
}

// PhaseStat aggregates one phase across every iteration of a run.
type PhaseStat struct {
	// Phase is the stable phase name (see Phase.String).
	Phase string `json:"phase"`
	// Wall is total wall time spent in the phase across all iterations.
	Wall time.Duration `json:"wall_ns"`
	// Chunks is the number of scheduler chunks executed in the phase.
	Chunks int64 `json:"chunks"`
	// Iters is how many iterations ran the phase (edge-pull and edge-push
	// partition the iteration count between them by frontier density).
	Iters int64 `json:"iters"`
	// MinDensity and MaxDensity bound the frontier density (fraction of
	// vertices active) observed when the phase was chosen. Frontier-blind
	// programs always run dense, so both are 1.
	MinDensity float64 `json:"min_density"`
	MaxDensity float64 `json:"max_density"`
}

// RunTrace is the per-run phase breakdown carried on the execution context
// and surfaced through grazelle.Stats and GET /v1/runs/{id}.
type RunTrace struct {
	Phases []PhaseStat `json:"phases"`
	// Directions is the per-iteration Edge-phase direction string: '<' pull,
	// '>' push, 's' sparse. Runs longer than the builder's cap end in '+'.
	Directions string `json:"directions,omitempty"`
}

// TraceBuilder accumulates phase observations for one run. It is written
// only by the run's driver goroutine (phase boundaries are sequential even
// when chunk execution is parallel), so it needs no synchronization.
// The zero value is ready to use.
type TraceBuilder struct {
	stats [NumPhases]PhaseStat
	seen  [NumPhases]bool
	dirs  []byte
}

// maxDirections caps the per-iteration direction string so a million-round
// run cannot bloat every RunRecord; the final mark is replaced with '+' once
// the cap is passed.
const maxDirections = 512

// AddDirection appends one iteration's direction mark ('<' pull, '>' push,
// 's' sparse).
func (b *TraceBuilder) AddDirection(mark byte) {
	if len(b.dirs) < maxDirections {
		b.dirs = append(b.dirs, mark)
	} else {
		b.dirs[maxDirections-1] = '+'
	}
}

// AddPhase folds one phase execution into the builder.
func (b *TraceBuilder) AddPhase(p Phase, wall time.Duration, chunks int64, density float64) {
	if p >= NumPhases {
		return
	}
	s := &b.stats[p]
	s.Wall += wall
	s.Chunks += chunks
	s.Iters++
	if !b.seen[p] {
		s.MinDensity, s.MaxDensity = density, density
		b.seen[p] = true
		return
	}
	if density < s.MinDensity {
		s.MinDensity = density
	}
	if density > s.MaxDensity {
		s.MaxDensity = density
	}
}

// Reset clears the builder for reuse (execution contexts are recycled).
func (b *TraceBuilder) Reset() {
	b.stats = [NumPhases]PhaseStat{}
	b.seen = [NumPhases]bool{}
	b.dirs = b.dirs[:0]
}

// Trace snapshots the accumulated observations into a RunTrace. Phases that
// never ran are omitted; phases appear in enum order.
func (b *TraceBuilder) Trace() RunTrace {
	t := RunTrace{Directions: string(b.dirs)}
	for p := Phase(0); p < NumPhases; p++ {
		if !b.seen[p] {
			continue
		}
		s := b.stats[p]
		s.Phase = p.String()
		t.Phases = append(t.Phases, s)
	}
	return t
}
