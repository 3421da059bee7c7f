package obs

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, per = 16, 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Bounds are inclusive upper limits: an observation exactly on a bound
	// lands in that bound's bucket, per the Prometheus le semantics.
	cases := []struct {
		v    float64
		want []uint64 // cumulative counts after observing v alone
	}{
		{0.5, []uint64{1, 1, 1, 1}},
		{1, []uint64{1, 1, 1, 1}}, // exactly on first bound → first bucket
		{1.0001, []uint64{0, 1, 1, 1}},
		{10, []uint64{0, 1, 1, 1}},
		{99.9, []uint64{0, 0, 1, 1}},
		{100, []uint64{0, 0, 1, 1}},
		{101, []uint64{0, 0, 0, 1}}, // beyond last bound → +Inf only
	}
	for _, tc := range cases {
		h := NewHistogram([]float64{1, 10, 100})
		h.Observe(tc.v)
		got := h.Cumulative()
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("Observe(%v): cumulative = %v, want %v", tc.v, got, tc.want)
				break
			}
		}
		if h.Count() != 1 {
			t.Errorf("Observe(%v): count = %d, want 1", tc.v, h.Count())
		}
		if h.Sum() != tc.v {
			t.Errorf("Observe(%v): sum = %v", tc.v, h.Sum())
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(float64(seed%4 + 1))
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("count = %d, want %d", got, goroutines*per)
	}
	cum := h.Cumulative()
	if last := cum[len(cum)-1]; last != goroutines*per {
		t.Fatalf("+Inf cumulative = %d, want %d", last, goroutines*per)
	}
	// Sum is exact here: all observed values are small integers, so the
	// CAS-float accumulation has no rounding.
	want := 0.0
	for i := 0; i < goroutines; i++ {
		want += float64(i%4+1) * per
	}
	if got := h.Sum(); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	if len(DefTimeBuckets) == 0 {
		t.Fatal("DefTimeBuckets empty")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	r.Counter("dup_total", "", nil)
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "", Labels{"a": "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "", Labels{"a": "2"})
}

func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("grazelle_test_runs_total", "Completed runs.", nil)
	c.Add(42)
	r.Counter("grazelle_test_labeled_total", "Labeled counter.", Labels{"app": "pagerank", "graph": "web"}).Add(7)
	g := r.Gauge("grazelle_test_inflight", "In-flight runs.", nil)
	g.Set(3)
	r.GaugeFunc("grazelle_test_bytes", "Resident bytes.", nil, func() float64 { return 1048576 })
	r.CounterFunc("grazelle_test_evictions_total", "Evictions.", nil, func() uint64 { return 5 })
	h := r.Histogram("grazelle_test_duration_seconds", "Run wall time.", nil, []float64{0.001, 0.01, 0.1, 1})
	for _, v := range []float64{0.0005, 0.002, 0.05, 0.05, 2} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{1048576, "1048576"},
		{0.05, "0.05"},
		{1.5, "1.5"},
		{math.Inf(1), "+Inf"},
	}
	for _, tc := range cases {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestTraceBuilder(t *testing.T) {
	var b TraceBuilder
	b.AddPhase(PhaseEdgePull, 10*time.Millisecond, 8, 1.0)
	b.AddPhase(PhaseVertex, 5*time.Millisecond, 4, 1.0)
	b.AddPhase(PhaseEdgePush, 2*time.Millisecond, 3, 0.01)
	b.AddPhase(PhaseEdgePush, 3*time.Millisecond, 5, 0.4)
	tr := b.Trace()
	if len(tr.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(tr.Phases))
	}
	// Enum order: edge-pull, edge-push, vertex.
	if tr.Phases[0].Phase != "edge-pull" || tr.Phases[1].Phase != "edge-push" || tr.Phases[2].Phase != "vertex" {
		t.Fatalf("phase order wrong: %+v", tr.Phases)
	}
	push := tr.Phases[1]
	if push.Wall != 5*time.Millisecond || push.Chunks != 8 || push.Iters != 2 {
		t.Fatalf("push aggregate wrong: %+v", push)
	}
	if push.MinDensity != 0.01 || push.MaxDensity != 0.4 {
		t.Fatalf("push density bounds wrong: %+v", push)
	}

	b.Reset()
	if tr2 := b.Trace(); len(tr2.Phases) != 0 {
		t.Fatalf("Reset left state: %+v", tr2)
	}
}

// TestTraceBuilderDirections covers the direction string's cap, a falling
// density bound, and an out-of-range phase, which is ignored.
func TestTraceBuilderDirections(t *testing.T) {
	var b TraceBuilder
	for i := 0; i < maxDirections+3; i++ {
		b.AddDirection('<')
	}
	b.AddPhase(PhaseVertex, time.Millisecond, 1, 0.4)
	b.AddPhase(PhaseVertex, time.Millisecond, 1, 0.1)
	b.AddPhase(NumPhases, time.Second, 9, 1)
	tr := b.Trace()
	if len(tr.Directions) != maxDirections || tr.Directions[maxDirections-1] != '+' {
		t.Errorf("directions: %d marks ending %q, want %d ending '+'",
			len(tr.Directions), tr.Directions[len(tr.Directions)-1], maxDirections)
	}
	if len(tr.Phases) != 1 || tr.Phases[0].MinDensity != 0.1 || tr.Phases[0].MaxDensity != 0.4 {
		t.Errorf("phases = %+v, want one vertex phase with density [0.1, 0.4]", tr.Phases)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseEdgePull: "edge-pull",
		PhaseEdgePush: "edge-push",
		PhaseVertex:   "vertex",
		PhaseMerge:    "merge",
		NumPhases:     "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	if r.Len() != 0 {
		t.Fatal("new ring not empty")
	}
	for i, id := range []string{"a", "b", "c", "d"} {
		r.Add(RunRecord{ID: id, Iters: i})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("oldest record should have been evicted")
	}
	rec, ok := r.Get("c")
	if !ok || rec.Iters != 2 {
		t.Fatalf("Get(c) = %+v, %v", rec, ok)
	}
	recent := r.Recent()
	if len(recent) != 3 || recent[0].ID != "d" || recent[1].ID != "c" || recent[2].ID != "b" {
		t.Fatalf("Recent order wrong: %+v", recent)
	}
}

func TestTraceRingClamp(t *testing.T) {
	r := NewTraceRing(0)
	r.Add(RunRecord{ID: "x"})
	r.Add(RunRecord{ID: "y"})
	if r.Len() != 1 {
		t.Fatalf("clamped ring len = %d, want 1", r.Len())
	}
	if _, ok := r.Get("y"); !ok {
		t.Fatal("latest record missing from clamped ring")
	}
}
