package core

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gen"
	"repro/internal/obs"
)

func phaseByName(tr obs.RunTrace, name string) (obs.PhaseStat, bool) {
	for _, ph := range tr.Phases {
		if ph.Phase == name {
			return ph, true
		}
	}
	return obs.PhaseStat{}, false
}

func traceWallSum(tr obs.RunTrace) time.Duration {
	var sum time.Duration
	for _, ph := range tr.Phases {
		sum += ph.Wall
	}
	return sum
}

// TestTracePageRank pins the trace shape of a frontier-blind pull program:
// edge-pull, merge, and vertex phases with one entry per iteration, density
// pinned to 1, chunk counts matching the scheduler's layout, and the
// sum-of-phases ≤ total-wall invariant.
func TestTracePageRank(t *testing.T) {
	g := gen.RMAT(10, 8000, gen.DefaultRMAT, 31)
	r := NewRunner(BuildGraph(g), Options{Workers: 4, Trace: true})
	defer r.Close()
	const iters = 5
	res := Run(r, apps.NewPageRank(g), iters)
	if res.Iterations != iters {
		t.Fatalf("iterations = %d, want %d", res.Iterations, iters)
	}
	for _, name := range []string{"edge-pull", "merge", "vertex"} {
		ph, ok := phaseByName(res.Trace, name)
		if !ok {
			t.Fatalf("phase %q missing from trace %+v", name, res.Trace)
		}
		if ph.Iters != iters {
			t.Errorf("phase %q iters = %d, want %d", name, ph.Iters, iters)
		}
		if ph.MinDensity != 1 || ph.MaxDensity != 1 {
			t.Errorf("phase %q density = [%v, %v], want [1, 1] for frontier-blind", name, ph.MinDensity, ph.MaxDensity)
		}
	}
	if _, ok := phaseByName(res.Trace, "edge-push"); ok {
		t.Error("edge-push phase present in a pull-only run")
	}
	edge, _ := phaseByName(res.Trace, "edge-pull")
	vertex, _ := phaseByName(res.Trace, "vertex")
	if edge.Chunks == 0 || vertex.Chunks == 0 {
		t.Errorf("zero chunk counts: edge %d, vertex %d", edge.Chunks, vertex.Chunks)
	}
	if sum := traceWallSum(res.Trace); sum > res.Total {
		t.Errorf("sum of phase walls %v exceeds total %v", sum, res.Total)
	}
	// Phase walls also tile the coarse Result decomposition: edge-pull +
	// merge lands inside EdgeTime, vertex inside VertexTime.
	merge, _ := phaseByName(res.Trace, "merge")
	if edge.Wall+merge.Wall > res.EdgeTime {
		t.Errorf("edge-pull %v + merge %v exceeds EdgeTime %v", edge.Wall, merge.Wall, res.EdgeTime)
	}
	if vertex.Wall > res.VertexTime {
		t.Errorf("vertex wall %v exceeds VertexTime %v", vertex.Wall, res.VertexTime)
	}
}

// TestTraceHybridBFS checks the frontier-driven shape: the hybrid engine
// runs push on sparse frontiers, so the trace splits the edge iterations
// between the two engines and records sub-unit densities.
func TestTraceHybridBFS(t *testing.T) {
	g := gen.RMAT(12, 40000, gen.DefaultRMAT, 32)
	r := NewRunner(BuildGraph(g), Options{Workers: 4, Trace: true})
	defer r.Close()
	res := Run(r, apps.NewBFS(0), 50)
	if res.PushIterations == 0 {
		t.Skip("graph produced no push iterations; nothing to assert")
	}
	push, ok := phaseByName(res.Trace, "edge-push")
	if !ok {
		t.Fatalf("edge-push missing: %+v", res.Trace)
	}
	if int(push.Iters) != res.PushIterations {
		t.Errorf("edge-push iters = %d, want %d", push.Iters, res.PushIterations)
	}
	if pull, ok := phaseByName(res.Trace, "edge-pull"); ok {
		if int(pull.Iters) != res.PullIterations {
			t.Errorf("edge-pull iters = %d, want %d", pull.Iters, res.PullIterations)
		}
	}
	if push.MinDensity < 0 || push.MaxDensity > 1 || push.MinDensity > push.MaxDensity {
		t.Errorf("push density bounds [%v, %v] not sane", push.MinDensity, push.MaxDensity)
	}
	// Push runs only below the pull threshold (default 0.05).
	if push.MaxDensity >= 0.05 {
		t.Errorf("push ran at density %v, at or above the pull threshold", push.MaxDensity)
	}
	vertex, ok := phaseByName(res.Trace, "vertex")
	if !ok || int(vertex.Iters) != res.Iterations {
		t.Errorf("vertex iters = %+v, want one per iteration (%d)", vertex, res.Iterations)
	}
}

// TestTraceDisabled: without Options.Trace the result carries no trace and
// the run pays no tracing cost paths.
func TestTraceDisabled(t *testing.T) {
	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 33)
	r := NewRunner(BuildGraph(g), Options{Workers: 2})
	defer r.Close()
	res := Run(r, apps.NewPageRank(g), 3)
	if len(res.Trace.Phases) != 0 || res.Trace.Directions != "" {
		t.Fatalf("trace populated without Options.Trace: %+v", res.Trace)
	}
}

// TestTraceSparsePath: sparse-frontier iterations are traced as edge-push
// with the sparse vertex phase counted under vertex.
func TestTraceSparsePath(t *testing.T) {
	g := gen.RMAT(12, 40000, gen.DefaultRMAT, 35)
	r := NewRunner(BuildGraph(g), Options{Workers: 2, Trace: true})
	defer r.Close()
	res := Run(r, apps.NewBFS(0), 50)
	if res.SparseIterations == 0 {
		t.Skip("no sparse iterations selected")
	}
	if _, ok := phaseByName(res.Trace, "edge-push"); !ok {
		t.Fatalf("edge-push missing with sparse iterations: %+v", res.Trace)
	}
	vertex, ok := phaseByName(res.Trace, "vertex")
	if !ok || int(vertex.Iters) != res.Iterations {
		t.Errorf("vertex iters = %+v, want %d", vertex, res.Iterations)
	}
}

// TestTraceRecycledContextReset: a traced run on a recycled ExecContext must
// not inherit the previous run's phase stats.
func TestTraceRecycledContextReset(t *testing.T) {
	g := gen.RMAT(9, 4000, gen.DefaultRMAT, 36)
	r := NewRunner(BuildGraph(g), Options{Workers: 2, Trace: true})
	defer r.Close()
	first := Run(r, apps.NewPageRank(g), 4)
	second := Run(r, apps.NewPageRank(g), 4)
	fe, _ := phaseByName(first.Trace, "edge-pull")
	se, _ := phaseByName(second.Trace, "edge-pull")
	if fe.Iters != se.Iters || fe.Chunks != se.Chunks {
		t.Errorf("recycled context trace differs: first %+v, second %+v", fe, se)
	}
}
