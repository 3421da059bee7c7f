// Package obs is the observability layer: a stdlib-only metrics registry
// (atomic counters, gauges read at scrape time, and fixed-bucket histograms
// with Prometheus text exposition) plus the per-run phase-trace types the engine records and the
// serving layer exposes. It sits below every other internal package — obs
// imports nothing from this repository — so sched, core, store, and the
// serve command can all feed the same registry without cycles.
//
// The paper argues performance phase by phase (Figs 5-7 decompose runtime
// into Edge and Vertex phases); this package makes that decomposition a
// production signal rather than a benchmark-only one: every run carries a
// RunTrace of per-phase wall time, chunk counts, and frontier density, and
// every subsystem (scheduler, store, admission) exports its
// load as metric families scrapable at /metrics.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
// The zero value is ready to use, so structs can embed counters directly.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// each bucket counts observations at or below its upper bound, with an
// implicit +Inf bucket catching the rest. Observe is lock-free (one atomic
// add per observation plus a CAS loop for the float sum), so it can sit on
// scheduler and run-completion paths.
type Histogram struct {
	// bounds are the finite upper bounds, ascending; counts has one extra
	// slot for +Inf.
	bounds []float64
	counts []atomic.Uint64
	// sumBits holds the running sum as float64 bits, updated by CAS.
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram creates a histogram with the given ascending finite upper
// bounds. An unsorted or empty bounds slice panics: bucket layout is a
// static property of the metric, so a bad layout is a programming error.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; linear would also do for the
	// typical 10-14 buckets, but this keeps Observe O(log n) regardless.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the finite upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative count at or below each finite bound,
// followed by the +Inf total — the Prometheus bucket series. The snapshot is
// not atomic across buckets; concurrent observations may make it ragged by a
// few counts, which scrapes tolerate.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// ExpBuckets returns n upper bounds starting at start and growing by factor —
// the usual latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefTimeBuckets is the default latency layout in seconds: 50µs to ~13s in
// ×4 steps. Graph phases are microseconds and whole queries can run seconds,
// so one layout covers both job-level and run-level histograms.
var DefTimeBuckets = ExpBuckets(50e-6, 4, 10)
