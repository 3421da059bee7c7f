package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gen"
)

// TestConcurrentRunsShareRunner launches many mixed-application runs on one
// Runner (one pool, one graph) and demands every result be bit-identical to
// a solo run: per-run ExecContexts plus the multiplexing pool must not leak
// state across queries.
func TestConcurrentRunsShareRunner(t *testing.T) {
	g := gen.RMAT(11, 16000, gen.DefaultRMAT, 5)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 4})
	defer r.Close()

	type query struct {
		name string
		run  func() []uint64
	}
	queries := []query{
		{"PageRank", func() []uint64 { return Run(r, apps.NewPageRank(g), 8).Props }},
		{"CC", func() []uint64 { return Run(r, apps.NewConnComp(), 1<<20).Props }},
		{"BFS", func() []uint64 { return Run(r, apps.NewBFS(0), 1<<20).Props }},
	}
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		want[i] = q.run()
	}

	const perApp = 4 // 12 concurrent runs total
	var wg sync.WaitGroup
	for rep := 0; rep < perApp; rep++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q query) {
				defer wg.Done()
				got := q.run()
				for v := range want[i] {
					if got[v] != want[i][v] {
						t.Errorf("%s: prop[%d] = %#x, want %#x (solo run)", q.name, v, got[v], want[i][v])
						return
					}
				}
			}(i, q)
		}
	}
	wg.Wait()
}

// TestRunCtxCancellation cancels a long PageRank mid-run: the run must stop
// early, return an error wrapping context.Canceled, and leave no extra
// goroutines behind once the runner closes.
func TestRunCtxCancellation(t *testing.T) {
	g := gen.RMAT(12, 60000, gen.DefaultRMAT, 3)
	cg := BuildGraph(g)
	before := runtime.NumGoroutine()
	r := NewRunner(cg, Options{Workers: 4})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	const maxIters = 1 << 20
	res, err := RunCtx(ctx, r, apps.NewPageRank(g), maxIters, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations >= maxIters {
		t.Errorf("run completed all %d iterations despite cancellation", res.Iterations)
	}
	if len(res.Props) != g.NumVertices {
		t.Errorf("partial result has %d props, want %d", len(res.Props), g.NumVertices)
	}

	r.Close()
	// Workers park and exit on Close; allow the scheduler a moment before
	// comparing goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("goroutines: %d before, %d after Close", before, after)
	}
}

// TestRunCtxPreCancelled: a context cancelled before the call returns
// immediately with zero iterations.
func TestRunCtxPreCancelled(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 1)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, r, apps.NewPageRank(g), 10, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iterations != 0 {
		t.Errorf("pre-cancelled run executed %d iterations", res.Iterations)
	}
}

// TestRunCtxDeadline: an expiring deadline behaves like cancellation and
// reports context.DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	g := gen.RMAT(12, 60000, gen.DefaultRMAT, 9)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, r, apps.NewPageRank(g), 1<<20, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunnerCloseIdempotent: double Close must not panic, with either an
// owned or a caller-supplied pool.
func TestRunnerCloseIdempotent(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 2)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 2})
	r.Close()
	r.Close()
}

// TestConcurrentCancellationIsolated: cancelling one run must not disturb a
// concurrent run on the same Runner.
func TestConcurrentCancellationIsolated(t *testing.T) {
	g := gen.RMAT(10, 8000, gen.DefaultRMAT, 7)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 4})
	defer r.Close()

	want := Run(r, apps.NewPageRank(g), 6).Props

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(time.Millisecond); cancel() }()
		if _, err := RunCtx(ctx, r, apps.NewPageRank(g), 1<<20, nil); err == nil {
			t.Error("cancelled run returned nil error")
		}
	}()
	go func() {
		defer wg.Done()
		got := Run(r, apps.NewPageRank(g), 6).Props
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("survivor run diverged at prop[%d]", v)
				return
			}
		}
	}()
	wg.Wait()
}
