package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
)

// TestRunCtxPanicContained injects a panic into one Edge-phase chunk via the
// core/chunk failpoint: RunCtx must return a typed *sched.PanicError wrapped
// in the run error, not crash, and the Runner must serve a correct run
// immediately afterwards.
func TestRunCtxPanicContained(t *testing.T) {
	g := gen.RMAT(10, 8000, gen.DefaultRMAT, 21)
	r := NewRunner(BuildGraph(g), Options{Workers: 4})
	defer r.Close()

	want := Run(r, apps.NewPageRank(g), 6).Props

	disarm, err := fault.Enable("core/chunk", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	_, err = RunCtx(context.Background(), r, apps.NewPageRank(g), 6, nil)
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx = %v, want wrapped *sched.PanicError", err)
	}

	// The failpoint budget is spent; the Runner must now produce the exact
	// solo-run result again.
	got := Run(r, apps.NewPageRank(g), 6).Props
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("post-panic run diverged at prop[%d]: %#x != %#x", v, got[v], want[v])
		}
	}
}

// TestRunCtxPanicOneOfN is the acceptance-criteria chaos shape at engine
// level: N concurrent queries, a failpoint panics exactly one chunk, and the
// N-1 survivors return bit-identical results.
func TestRunCtxPanicOneOfN(t *testing.T) {
	g := gen.RMAT(10, 8000, gen.DefaultRMAT, 22)
	r := NewRunner(BuildGraph(g), Options{Workers: 4})
	defer r.Close()

	want := Run(r, apps.NewPageRank(g), 8).Props

	disarm, err := fault.Enable("core/chunk", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()

	const n = 8
	errs := make([]error, n)
	results := make([][]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunCtx(context.Background(), r, apps.NewPageRank(g), 8, nil)
			errs[i], results[i] = err, res.Props
		}(i)
	}
	wg.Wait()

	failed := 0
	for i := 0; i < n; i++ {
		var pe *sched.PanicError
		if errors.As(errs[i], &pe) {
			failed++
			continue
		}
		if errs[i] != nil {
			t.Fatalf("query %d: unexpected error %v", i, errs[i])
		}
		for v := range want {
			if results[i][v] != want[v] {
				t.Fatalf("surviving query %d diverged at prop[%d]", i, v)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d queries failed, want exactly 1 (panic*1 budget)", failed)
	}
	// The core-level guard contains the panic before it reaches the pool, so
	// the pool's own panic counter stays untouched — the pool never saw it.
	if n := r.Pool().Panics(); n != 0 {
		t.Errorf("pool panic counter = %d, want 0 (contained at core layer)", n)
	}
}

// TestRunCtxPanicInApplyPhase panics inside the Vertex phase's Apply via a
// poisoned program callback; the guard on the static loop must contain it.
func TestRunCtxPanicInApplyPhase(t *testing.T) {
	g := gen.ErdosRenyi(500, 3000, 3)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	_, err := RunCtx(context.Background(), r, poisonedApply{apps.NewPageRank(g)}, 4, nil)
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunCtx = %v, want wrapped *sched.PanicError", err)
	}
	if _, err := RunCtx(context.Background(), r, apps.NewPageRank(g), 4, nil); err != nil {
		t.Fatalf("follow-up run = %v", err)
	}
}

// poisonedApply panics on the first Apply of vertex 0. It embeds the
// Program interface, which hides the fused kind and the rank step: a fused
// rank sum's Vertex phase runs rankBody and never calls Apply.
type poisonedApply struct {
	apps.Program
}

func (p poisonedApply) Apply(old, agg uint64, v uint32) (uint64, bool) {
	if v == 0 {
		panic("poisoned apply")
	}
	return p.Program.Apply(old, agg, v)
}

// TestPanicInListDrivenRound arms the core/chunk failpoint on a bfs run
// whose first round is a list-driven round cut into several chunks: every
// phase chunk runs under runChunk's contract, so the run must fail in that
// round.
func TestPanicInListDrivenRound(t *testing.T) {
	const n, hub = 4096, 2400
	b := graph.NewBuilder(n)
	for _, e := range gen.ErdosRenyi(n, 50000, 25).Edges {
		b.AddEdge(e.Src, e.Dst)
	}
	for v := uint32(1); v <= hub; v++ {
		b.AddEdge(0, v)
	}
	cg := BuildGraph(b.MustBuild())
	cs := census{count: 1, list: []uint32{0}, outEdges: cg.VSS.Degree(0)}
	if cs.chunks(2) < 2 || cs.work() > cg.Edges/sparseThresholdDivisor {
		t.Fatalf("root's round: %d chunks, work %d of budget %d; want a multi-chunk list-driven round",
			cs.chunks(2), cs.work(), cg.Edges/sparseThresholdDivisor)
	}
	r := NewRunner(cg, Options{Workers: 2, Trace: true})
	defer r.Close()
	if res := Run(r, apps.NewBFS(0), 1<<20); res.Trace.Directions[0] != 's' {
		t.Fatalf("first round ran %q, want a list-driven round", res.Trace.Directions[0])
	}

	disarm, err := fault.Enable("core/chunk", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	res, err := RunCtx(context.Background(), r, apps.NewBFS(0), 1<<20, nil)
	var pe *sched.PanicError
	if !errors.As(err, &pe) || res.Iterations != 1 {
		t.Fatalf("RunCtx = %v after %d iterations, want a *sched.PanicError in round 1", err, res.Iterations)
	}
}

// TestMaxRunTimeDeadline: a context deadline bounds a run's wall-clock time,
// reporting context.DeadlineExceeded alongside the partial result.
func TestMaxRunTimeDeadline(t *testing.T) {
	g := gen.RMAT(12, 60000, gen.DefaultRMAT, 23)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	const maxIters = 1 << 20
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := RunCtx(ctx, r, apps.NewPageRank(g), maxIters, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res.Iterations >= maxIters {
		t.Error("run ignored the deadline")
	}
	if len(res.Props) != g.NumVertices {
		t.Errorf("partial result has %d props, want %d", len(res.Props), g.NumVertices)
	}
}

// TestAbortedRunDoesNotPoisonRecycledContext: an aborted ordered-push run
// leaves scatter contributions behind; the recycled ExecContext must not
// fold them into the next run. (Init drains the scatter buffer.)
func TestAbortedRunDoesNotPoisonRecycledContext(t *testing.T) {
	g := gen.RMAT(10, 8000, gen.DefaultRMAT, 24)
	// Push-only keeps the scatter/CAS paths hot; one worker serializes runs
	// onto one recycled ExecContext.
	r := NewRunner(BuildGraph(g), Options{Workers: 1, Mode: EnginePushOnly})
	defer r.Close()

	want := Run(r, apps.NewPageRank(g), 5).Props

	disarm, err := fault.Enable("core/chunk", "panic*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	if _, err := RunCtx(context.Background(), r, apps.NewPageRank(g), 5, nil); err == nil {
		t.Fatal("injected run returned nil error")
	}

	got := Run(r, apps.NewPageRank(g), 5).Props
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("recycled-context run diverged at prop[%d]", v)
		}
	}
}
