package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/sched"
)

// assertPartitionIdentity runs mk's program monolithically and at several
// partition counts, asserting the output property words are bit-identical —
// the coordinator's core determinism contract (DESIGN.md §13).
func assertPartitionIdentity[P apps.Program](t *testing.T, cg *Graph, mk func() P, iters int, base Options) {
	t.Helper()
	for _, workers := range []int{1, 2, 4} {
		o := base
		o.Workers = workers
		r := NewRunner(cg, o)
		refRes := Run(r, mk(), iters)
		r.Close()
		if refRes.Partitions != 1 {
			t.Fatalf("monolithic run reported %d partitions", refRes.Partitions)
		}
		want := refRes.Props
		for _, parts := range []int{2, 3, 4, 7} {
			o := base
			o.Workers = workers
			o.Partitions = parts
			r := NewRunner(cg, o)
			res := Run(r, mk(), iters)
			r.Close()
			if res.Partitions != parts {
				t.Fatalf("workers=%d parts=%d: effective partitions = %d", workers, parts, res.Partitions)
			}
			if res.Iterations != refRes.Iterations {
				t.Fatalf("workers=%d parts=%d: %d iterations, monolithic ran %d",
					workers, parts, res.Iterations, refRes.Iterations)
			}
			for v := range want {
				if res.Props[v] != want[v] {
					t.Fatalf("workers=%d parts=%d: props[%d] = %#x, want %#x",
						workers, parts, v, res.Props[v], want[v])
				}
			}
		}
	}
}

func partitionTestGraph() (*Graph, *graph.Graph) {
	g := gen.AddUniformWeights(gen.RMAT(9, 4200, gen.DefaultRMAT, 17), 8)
	return BuildGraph(g), g
}

func TestPartitionedBitIdentity(t *testing.T) {
	cg, g := partitionTestGraph()
	for _, ablate := range []bool{false, true} {
		base := Options{AblateFrontierWork: ablate}
		name := "shipped"
		if ablate {
			name = "paper"
		}
		t.Run(name+"/pagerank", func(t *testing.T) {
			assertPartitionIdentity(t, cg, func() *apps.PageRank { return apps.NewPageRank(g) }, 15, base)
		})
		t.Run(name+"/bfs", func(t *testing.T) {
			assertPartitionIdentity(t, cg, func() *apps.BFS { return apps.NewBFS(0) }, 1<<20, base)
		})
		t.Run(name+"/cc", func(t *testing.T) {
			assertPartitionIdentity(t, cg, func() *apps.ConnComp { return apps.NewConnComp() }, 1<<20, base)
		})
		t.Run(name+"/sssp", func(t *testing.T) {
			assertPartitionIdentity(t, cg, func() *apps.SSSP { return apps.NewSSSP(0) }, 1<<20, base)
		})
	}
	// Forced push exercises the partitioned push spans: ordered float
	// scatter (PageRank) and CAS min-scatter (CC).
	t.Run("push-only/pagerank", func(t *testing.T) {
		assertPartitionIdentity(t, cg, func() *apps.PageRank { return apps.NewPageRank(g) }, 10,
			Options{Mode: EnginePushOnly})
	})
	t.Run("push-only/cc", func(t *testing.T) {
		assertPartitionIdentity(t, cg, func() *apps.ConnComp { return apps.NewConnComp() }, 1<<20,
			Options{Mode: EnginePushOnly})
	})
}

// TestPartitionedFallback pins the configurations that must quietly fall
// back to the monolithic coordinator.
func TestPartitionedFallback(t *testing.T) {
	cg, _ := partitionTestGraph()
	cases := map[string]Options{
		"scalar":       {Partitions: 4, Scalar: true},
		"record":       {Partitions: 4, Record: true},
		"traditional":  {Partitions: 4, Variant: PullTraditional},
		"multi-node":   {Partitions: 4, Workers: 4, Topology: numa.Topology{Nodes: 2, WorkersPerNode: 2}},
		"zero":         {Partitions: 0},
		"one":          {Partitions: 1},
		"negative-ish": {},
	}
	for name, opt := range cases {
		t.Run(name, func(t *testing.T) {
			if opt.Workers == 0 {
				opt.Workers = 2
			}
			r := NewRunner(cg, opt)
			defer r.Close()
			res := Run(r, apps.NewConnComp(), 1<<20)
			if res.Partitions != 1 {
				t.Errorf("effective partitions = %d, want 1", res.Partitions)
			}
		})
	}
	t.Run("partitioned-reports-count", func(t *testing.T) {
		r := NewRunner(cg, Options{Workers: 2, Partitions: 3})
		defer r.Close()
		if res := Run(r, apps.NewConnComp(), 1<<20); res.Partitions != 3 {
			t.Errorf("effective partitions = %d, want 3", res.Partitions)
		}
	})
}

// TestPartitionedExchangeAccounting checks the per-partition trace: every
// frontier-driven full iteration exchanges each bitmap word exactly once
// (list-driven rounds run fused and exchange nothing), so the summed
// exchange bytes must equal full iterations × words × 8, and the direction
// string must record one mark per iteration.
func TestPartitionedExchangeAccounting(t *testing.T) {
	cg, pg := partitionTestGraph()
	const parts = 4
	r := NewRunner(cg, Options{Workers: 2, Partitions: parts, Trace: true})
	defer r.Close()
	res := Run(r, apps.NewConnComp(), 1<<20)
	if len(res.Trace.Partitions) != parts {
		t.Fatalf("trace has %d partition stats, want %d", len(res.Trace.Partitions), parts)
	}
	var sum int64
	spans := 0
	for i, ps := range res.Trace.Partitions {
		if ps.Part != i {
			t.Errorf("partition stat %d has Part=%d", i, ps.Part)
		}
		sum += ps.ExchangeBytes
		spans += ps.Spans
	}
	words := (cg.N + 63) / 64
	full := res.Iterations - res.SparseIterations
	want := int64(full) * int64(words) * 8
	if sum != want {
		t.Errorf("exchange bytes = %d, want %d (%d full iterations × %d words × 8)",
			sum, want, full, words)
	}
	if full == 0 || res.SparseIterations == 0 {
		t.Errorf("want both full and list-driven iterations, got %q", res.Trace.Directions)
	}
	if spans == 0 {
		t.Error("no spans recorded")
	}
	if len(res.Trace.Directions) != res.Iterations {
		t.Errorf("directions %q has %d marks, want %d", res.Trace.Directions,
			len(res.Trace.Directions), res.Iterations)
	}
	for i := 0; i < len(res.Trace.Directions); i++ {
		if c := res.Trace.Directions[i]; c != '<' && c != '>' && c != 's' {
			t.Fatalf("unexpected direction mark %q", c)
		}
	}
	// A frontier-blind partitioned run must exchange nothing.
	res = Run(r, apps.NewPageRank(pg), 5)
	var blind int64
	for _, ps := range res.Trace.Partitions {
		blind += ps.ExchangeBytes
	}
	if blind != 0 {
		t.Errorf("frontier-blind run exchanged %d bytes, want 0", blind)
	}
}

// TestPartitionedExchangeFaultChaos arms the coord/exchange failpoint and
// checks a partitioned run fails cleanly — typed error, no hang — and that
// the runner serves the next run normally.
func TestPartitionedExchangeFaultChaos(t *testing.T) {
	cg, _ := partitionTestGraph()
	r := NewRunner(cg, Options{Workers: 2, Partitions: 2})
	defer r.Close()
	want := Run(r, apps.NewConnComp(), 1<<20).Props

	disarm, err := fault.Enable("coord/exchange", "error*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	_, err = RunCtx(context.Background(), r, apps.NewConnComp(), 1<<20)
	if err == nil {
		t.Fatal("run with failing exchange returned nil error")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap fault.ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "frontier exchange failed") {
		t.Fatalf("error %v does not name the exchange", err)
	}

	// The budget was one shot; the runner must be healthy again.
	res, err := RunCtx(context.Background(), r, apps.NewConnComp(), 1<<20)
	if err != nil {
		t.Fatalf("run after failpoint drained: %v", err)
	}
	for v := range want {
		if res.Props[v] != want[v] {
			t.Fatalf("post-fault props[%d] = %#x, want %#x", v, res.Props[v], want[v])
		}
	}
}

// TestPartitionedExchangeWatchdogChaos wedges the exchange with a delay spec
// long past the run's watchdog deadline: the run must stop promptly with the
// deadline error, release its admission slot (the pool cap), and leave the
// runner usable.
func TestPartitionedExchangeWatchdogChaos(t *testing.T) {
	cg, _ := partitionTestGraph()
	pool := sched.NewPool(2)
	defer pool.Close()
	pool.SetMaxActiveJobs(1)
	r := NewRunner(cg, Options{Pool: pool, Partitions: 2})
	defer r.Close()

	disarm, err := fault.Enable("coord/exchange", "delay:300ms*1")
	if err != nil {
		t.Fatal(err)
	}
	defer disarm()
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = RunCtx(ctx, r, apps.NewConnComp(), 1<<20)
	if err == nil {
		t.Fatal("wedged run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if wall := time.Since(t0); wall > 5*time.Second {
		t.Fatalf("wedged run took %v to fail", wall)
	}

	// No admission-slot leak: the cap unit went back, so a fresh run on the
	// same cap-1 pool completes.
	if pool.ActiveJobs() != 0 {
		t.Fatalf("pool still has %d active jobs", pool.ActiveJobs())
	}
	if _, err := RunCtx(context.Background(), r, apps.NewConnComp(), 1<<20); err != nil {
		t.Fatalf("run after wedge: %v", err)
	}
}
