package obs

import (
	"sync"
	"time"
)

// RunRecord is one completed run retained in the trace ring: identity,
// outcome, and the phase breakdown.
type RunRecord struct {
	ID    string    `json:"id"`
	Graph string    `json:"graph,omitempty"`
	App   string    `json:"app,omitempty"`
	Start time.Time `json:"start"`
	// Wall is the whole computed path, admission through encode; Stages
	// splits it.
	Wall     time.Duration `json:"wall_ns"`
	Stages   Stages        `json:"stages"`
	Error    string        `json:"error,omitempty"`
	Trace    RunTrace      `json:"trace"`
	Workers  int           `json:"workers,omitempty"`
	Iters    int           `json:"iterations,omitempty"`
	Vertices int64         `json:"vertices,omitempty"`
	Edges    int64         `json:"edges,omitempty"`
	// Mode records the engine mode the run executed under.
	Mode string `json:"mode,omitempty"`
	// Kernel names the rank-sum gather kernel of the process that ran the
	// engine ("avx2" or "go", vec.Kernel) — on a router, the answering
	// worker's — so a slow pr on a machine without AVX2 explains itself.
	Kernel string `json:"kernel,omitempty"`
	// Incremental reports that the run was warm-started from the result
	// cached at SeedVersion instead of cold-starting.
	Incremental bool   `json:"incremental,omitempty"`
	SeedVersion uint64 `json:"seed_version,omitempty"`
	// Worker is the URL of the cluster worker that answered a routed run
	// (router role only); Trace is then that worker's engine trace.
	Worker string `json:"worker,omitempty"`
}

// Stages is a run's wall time by request stage, in path order; the stages
// sum to RunRecord.Wall. Run is the local engine run; on a router the stage
// is Post instead — lock, version re-check and the whole placement on a
// worker, whose own stages sit in that worker's record under the same ID.
type Stages struct {
	// Admission lasts until the admission slot is granted.
	Admission time.Duration `json:"admission_ns"`
	// Acquire pins the graph, materializing or rehydrating it when needed.
	Acquire time.Duration `json:"acquire_ns"`
	Run     time.Duration `json:"run_ns,omitempty"`
	Post    time.Duration `json:"post_ns,omitempty"`
	Encode  time.Duration `json:"encode_ns"`
}

// TraceRing retains the last N completed run records for GET /v1/runs.
// Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	buf  []RunRecord
	next int
	full bool
}

// NewTraceRing creates a ring holding up to n records (n < 1 is clamped to 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]RunRecord, n)}
}

// Add appends a completed run record, evicting the oldest if full.
func (r *TraceRing) Add(rec RunRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Get returns the record with the given id, if retained.
func (r *TraceRing) Get(id string) (RunRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	for i := 0; i < n; i++ {
		if r.buf[i].ID == id {
			return r.buf[i], true
		}
	}
	return RunRecord{}, false
}

// Recent returns retained records newest-first.
func (r *TraceRing) Recent() []RunRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]RunRecord, 0, n)
	// Walk backwards from the most recently written slot.
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// Len reports how many records are retained.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
