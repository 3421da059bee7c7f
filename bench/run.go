package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
)

// graphSpec names one internal/gen analog, written <letter>×<scale>.
type graphSpec struct {
	Dataset gen.Dataset
	Scale   float64
}

func (s graphSpec) String() string { return fmt.Sprintf("%s×%g", s.Dataset.Abbrev(), s.Scale) }

// sizing fixes the graphs and the traced pass's operation counts. The
// defaults are sized for a 2-core box: large enough that the kernel
// dominates fixed overhead, small enough that three set-ups, a warm-up and
// the window fit the per-run budget. bench_test.go runs a miniature.
type sizing struct {
	dense    graphSpec // kernel-dense: most skewed in-degrees
	frontier graphSpec // kernel-frontier: R-MAT half of a round
	mesh     graphSpec // kernel-frontier: road mesh, hundreds of tiny iterations
	serve    graphSpec // every server workload
	// tracedOps is how many operations per client the traced pass replays,
	// once to warm, once untraced and once traced; fixed so counts repeat
	// exactly. serve-mutate's must put cycle 16 — the one that compacts — in
	// the traced third.
	tracedOps map[string]int
	warmup    time.Duration
	setups    int // set-up repetitions; setup_s is their median
}

var defaultSizing = sizing{
	dense:    graphSpec{gen.UK2007, 4},
	frontier: graphSpec{gen.Twitter, 8},
	mesh:     graphSpec{gen.DimacsUSA, 4},
	serve:    graphSpec{gen.Twitter, 4},
	tracedOps: map[string]int{
		"kernel-dense": 20, "kernel-frontier": 10, "serve-read": 200, "serve-mutate": 6, "cluster-read": 24,
	},
	warmup: 2 * time.Second,
	setups: 3,
}

// env is what every workload instance shares.
type env struct {
	bin   string // compiled grazelle
	ps    *procSet
	http  *http.Client
	nproc int
	size  sizing
}

// sample is one latency observation of a request class.
type sample struct {
	class string
	ms    float64
}

// outcome is what one operation produced. A non-empty failure means the
// operation erred, was refused, timed out, or returned a wrong answer; its
// samples are then dropped from every latency median.
type outcome struct {
	samples []sample
	failure string
}

func failed(format string, args ...any) outcome {
	return outcome{failure: fmt.Sprintf(format, args...)}
}

// instance is one workload bound to a seed. Its constructor builds the
// oracle the checks compare against, outside the set-up clock; an oracle that
// needs the system up is built once, during the first of the three set-ups,
// whose median is what setup_s reports.
type instance interface {
	// setUp brings the system under test from nothing to ready to serve:
	// generate, build, start processes, wait for readiness and resync. It is
	// timed as setup_s. tr is nil in the untraced pass.
	setUp(ctx context.Context, tr *tracer) error
	// tearDown undoes setUp.
	tearDown() error
	// clients is the closed loop's caller count.
	clients() int
	// op performs the i-th operation of the given client's seeded sequence.
	op(ctx context.Context, client, i int, tr *tracer) outcome
	// primary is the request class whose median is op_ms_p50.
	primary() string
	// finish runs the checks that need the whole window (and any oracle work
	// too slow to do per operation); it returns failure descriptions.
	finish(ctx context.Context) []string
	// procs lists the server processes under test, the one clients talk to
	// first; an in-process workload has none.
	procs() []*proc
	// layers measures this workload's per-layer metrics into m.
	layers(ctx context.Context, tr *tracer, classes map[string][]float64, m *sink) error
	// graphs reports the sizes of the graphs in use.
	graphs() map[string]graphSize
}

type graphSize struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"` // first few, for diagnosis
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Raw holds the uncalibrated latency and rate and the calibration pass
	// time they were scaled by (untraced pass only).
	Raw     map[string]metricValue `json:"raw,omitempty"`
	Samples map[string]int         `json:"samples"` // per request class
	Graphs  map[string]graphSize   `json:"graphs"`
	SetupsS []float64              `json:"setups_s,omitempty"`
}

// loopResult is what the closed loop observed.
type loopResult struct {
	classes   map[string][]float64
	attempted int
	failed    int
	failures  []string
	// elapsed spans the counted operations, first start to last completion,
	// less the calibration pauses, so the rate computed from it is not
	// quantised by the window length.
	elapsed time.Duration
	// With a calibration: the primary class's latencies in calibrated
	// milliseconds, the pass times seen, and busy/busyCal — the clients' time
	// inside operations, raw and calibrated — whose ratio turns the raw rate
	// into a calibrated one.
	calibrated    []float64
	passes        []float64
	busy, busyCal float64
}

const maxFailuresKept = 8

// closedLoop runs the instance's clients back to back. With window > 0 it
// discards the warm-up and counts the operations that start and complete
// inside the window; with ops > 0 it runs exactly that many per client
// starting at sequence number first (the traced pass).
//
// With a calibration, client 0 stops the world every calEvery — it waits for
// the requests in flight, holds the others back, and times one calibration
// pass on an idle system — so every operation has a machine-speed reading at
// most calEvery old (see calibrate.go).
func closedLoop(ctx context.Context, in instance, warmup, window time.Duration, first, ops int, tr *tracer, cal *calibration) loopResult {
	n := in.clients()
	winStart := time.Now().Add(warmup)
	winEnd := winStart.Add(window)
	var (
		mu                sync.Mutex
		res               = loopResult{classes: map[string][]float64{}}
		firstStart, final time.Time
		paused            time.Duration
		scale             = 1.0 // nominalPassMS / latest pass time
		wg                sync.WaitGroup

		world    sync.RWMutex // held for reading during an operation
		lastTick time.Time    // client 0 only
	)
	tick := func() {
		world.Lock()
		t0 := time.Now()
		pass := cal.pass()
		lastTick = time.Now()
		world.Unlock()
		mu.Lock()
		scale = nominalPassMS / pass
		if t0.After(winStart) && lastTick.Before(winEnd) {
			paused += lastTick.Sub(t0)
			res.passes = append(res.passes, pass)
		}
		mu.Unlock()
	}
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := first; ctx.Err() == nil; i++ {
				if cal != nil && c == 0 && time.Since(lastTick) >= calEvery {
					tick()
				}
				began := time.Now()
				if ops > 0 && i >= first+ops || ops == 0 && !began.Before(winEnd) {
					return
				}
				world.RLock()
				out := in.op(ctx, c, i, tr)
				world.RUnlock()
				done := time.Now()
				if ops == 0 && (began.Before(winStart) || done.After(winEnd)) {
					continue
				}
				mu.Lock()
				if firstStart.IsZero() || began.Before(firstStart) {
					firstStart = began
				}
				if done.After(final) {
					final = done
				}
				res.busy += done.Sub(began).Seconds()
				res.busyCal += done.Sub(began).Seconds() * scale
				res.attempted++
				if out.failure != "" {
					res.failed++
					if len(res.failures) < maxFailuresKept {
						res.failures = append(res.failures, out.failure)
					}
				} else {
					for _, s := range out.samples {
						res.classes[s.class] = append(res.classes[s.class], s.ms)
						if cal != nil && s.class == in.primary() {
							res.calibrated = append(res.calibrated, s.ms*scale)
						}
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = final.Sub(firstStart) - paused
	return res
}

// timedSetUps sets the system up size.setups times, tearing it down in
// between, and leaves the last one standing. It returns each set-up's wall
// time in seconds. Set-up is not calibrated: it is mostly single-threaded
// generation and building, which a neighbour slows less than it slows the
// all-core calibration pass, and ten runs' raw medians stayed within ±9 % of
// one another across quiet and noisy stretches.
func timedSetUps(ctx context.Context, e *env, in instance) ([]float64, error) {
	var took []float64
	for k := 0; k < e.size.setups; k++ {
		if k > 0 {
			if err := in.tearDown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := in.setUp(ctx, nil); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// selfCPU is the benchmark process's own CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func newResult(w workload, seed int64, in instance, lr loopResult, extra []string) *runResult {
	r := &runResult{
		Workload:  w.name,
		Seed:      seed,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Failures:  append(lr.failures, extra...),
		Samples:   map[string]int{},
		Graphs:    in.graphs(),
	}
	for class, xs := range lr.classes {
		r.Samples[class] = len(xs)
	}
	if len(extra) > 0 && r.Failed == 0 {
		// A whole-window check failed without pinning it on one operation.
		r.Failed = 1
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if len(r.Failures) > maxFailuresKept {
		r.Failures = r.Failures[:maxFailuresKept]
	}
	return r
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, e *env, w workload, seed int64, seconds float64) (res *runResult, err error) {
	in, err := w.new(e, seed)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, in.tearDown()) }()
	setups, err := timedSetUps(ctx, e, in)
	if err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	lr := closedLoop(ctx, in, e.size.warmup, window, 0, 0, nil, newCalibration(e.nproc))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res = newResult(w, seed, in, lr, in.finish(ctx))
	res.Seconds = seconds
	res.SetupsS = setups

	rate := float64(lr.attempted-lr.failed) / lr.elapsed.Seconds()
	m := newSink(endToEnd)
	m.set("setup_s", median(setups))
	m.set("op_ms_p50_cal", median(lr.calibrated))
	m.set("throughput_ops_cal", rate*lr.busy/lr.busyCal)
	res.Metrics, res.Notes = m.values, m.notes
	res.Raw = map[string]metricValue{
		"op_ms_p50":      {median(lr.classes[in.primary()]), "ms"},
		"throughput_ops": {rate, "1/s"},
		"cal_pass_ms":    {median(lr.passes), "ms"},
	}
	return res, errors.Join(m.errs...)
}

// runTraced measures the per-layer metrics of one workload: one set-up with
// spans around the benchmark's own calls into the layers, the seeded
// operation sequence replayed for a fixed count without and then with spans,
// then the workload's layer measurements.
func runTraced(ctx context.Context, e *env, w workload, seed int64) (res *runResult, err error) {
	in, err := w.new(e, seed)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, in.tearDown()) }()
	tr := newTracer()
	t0 := time.Now()
	if err := in.setUp(ctx, tr); err != nil {
		return nil, err
	}
	setup := time.Since(t0).Seconds()

	ops := e.size.tracedOps[w.name]
	warm := closedLoop(ctx, in, 0, 0, 0, ops, nil, nil)
	cpu0, use0 := selfCPU(), usageOfAll(in.procs())
	plain := closedLoop(ctx, in, 0, 0, ops, ops, nil, nil)
	lr := closedLoop(ctx, in, 0, 0, 2*ops, ops, tr, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, use1 := selfCPU(), usageOfAll(in.procs())

	m := newSink(perLayer)
	if err := in.layers(ctx, tr, lr.classes, m); err != nil {
		return nil, err
	}
	lr.attempted += warm.attempted + plain.attempted
	lr.failed += warm.failed + plain.failed
	lr.failures = append(append(warm.failures, plain.failures...), lr.failures...)
	res = newResult(w, seed, in, lr, in.finish(ctx))
	res.Traced = true
	res.SetupsS = []float64{setup}

	m.set("bench.trace_overhead_ratio", median(lr.classes[in.primary()])/median(plain.classes[in.primary()]))
	m.set("bench.samples", float64(len(lr.classes[in.primary()])))
	m.set("bench.failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	if own, sut := cpu1-cpu0, use1.cpuS-use0.cpuS; sut > 0 {
		// The load generator's part of all CPU spent during the replays; only
		// defined when the system under test is another process.
		m.set("bench.generator_cpu_share", own/(own+sut))
	}
	if err := errors.Join(m.errs...); err != nil {
		return nil, err
	}
	m.zeroFill()
	res.Metrics, res.Notes = m.values, m.notes
	if err := tr.write(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// printResult lists every metric by name with its unit.
func printResult(r *runResult) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("== %s  seed=%d  %s  attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Printf("  %-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, name := range []string{"op_ms_p50", "throughput_ops", "cal_pass_ms"} {
		if v, ok := r.Raw[name]; ok {
			fmt.Printf("  raw %-36s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	classes := make([]string, 0, len(r.Samples))
	for c := range r.Samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  samples[%s] = %d\n", c, r.Samples[c])
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILURE: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// meta is what a result file records about where it was measured.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newMeta() meta {
	return meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}
