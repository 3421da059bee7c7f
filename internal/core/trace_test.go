package core

import (
	"fmt"
	"strings"
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

// traceShape renders the wall-free part of a run: its iteration counters,
// its direction string (run-length coded) and, per phase in trace order, the
// iteration count, chunk count and density bounds.
func traceShape(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "it=%d pull=%d push=%d sparse=%d dirs=", res.Iterations,
		res.PullIterations, res.PushIterations, res.SparseIterations)
	d := res.Trace.Directions
	for i := 0; i < len(d); {
		j := i
		for j < len(d) && d[j] == d[i] {
			j++
		}
		fmt.Fprintf(&b, "%c%d", d[i], j-i)
		i = j
	}
	for _, ph := range res.Trace.Phases {
		fmt.Fprintf(&b, " | %s %d it %d ch [%v,%v]", ph.Phase, ph.Iters, ph.Chunks, ph.MinDensity, ph.MaxDensity)
	}
	return b.String()
}

// tracePins holds each cell's traceShape: the part of a completed run's
// trace and counters that no clock reading decides, so it is the same on
// every run of the cell.
var tracePins = map[string]string{
	"T1/w1/default/pr":     "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w1/default/cc":     "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 96 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 4 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w1/default/bfs":    "it=4 pull=2 push=2 sparse=2 dirs=s1<2s1 | edge-pull 2 it 64 ch [0.1710205078125,0.6300048828125] | edge-push 2 it 2 ch [0.0001220703125,0.025390625] | vertex 4 it 4 ch [0.0001220703125,0.6300048828125] | merge 2 it 0 ch [0.1710205078125,0.6300048828125]",
	"T1/w1/default/sssp":   "it=5 pull=2 push=3 sparse=3 dirs=s1<2s2 | edge-pull 2 it 64 ch [0.1710205078125,0.7459716796875] | edge-push 3 it 19 ch [0.0001220703125,0.25830078125] | vertex 5 it 5 ch [0.0001220703125,0.7459716796875] | merge 2 it 0 ch [0.1710205078125,0.7459716796875]",
	"T1/w1/default/kcore":  "it=2 pull=0 push=2 sparse=2 dirs=s2 | edge-push 2 it 7 ch [0.000732421875,0.3565673828125] | vertex 2 it 2 ch [0.000732421875,0.3565673828125] | merge 2 it 0 ch [0.000732421875,0.3565673828125]",
	"T1/w1/record/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w1/record/cc":      "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 96 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 4 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w1/scalar/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w1/scalar/cc":      "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 96 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 4 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w1/traditional/pr": "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w1/traditional/cc": "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 96 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 4 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w2/default/pr":     "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w2/default/cc":     "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 192 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 7 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w2/default/bfs":    "it=4 pull=2 push=2 sparse=2 dirs=s1<2s1 | edge-pull 2 it 128 ch [0.1710205078125,0.6300048828125] | edge-push 2 it 2 ch [0.0001220703125,0.025390625] | vertex 4 it 6 ch [0.0001220703125,0.6300048828125] | merge 2 it 0 ch [0.1710205078125,0.6300048828125]",
	"T1/w2/default/sssp":   "it=5 pull=2 push=3 sparse=3 dirs=s1<2s2 | edge-pull 2 it 128 ch [0.1710205078125,0.7459716796875] | edge-push 3 it 19 ch [0.0001220703125,0.25830078125] | vertex 5 it 8 ch [0.0001220703125,0.7459716796875] | merge 2 it 0 ch [0.1710205078125,0.7459716796875]",
	"T1/w2/default/kcore":  "it=2 pull=0 push=2 sparse=2 dirs=s2 | edge-push 2 it 7 ch [0.000732421875,0.3565673828125] | vertex 2 it 3 ch [0.000732421875,0.3565673828125] | merge 2 it 0 ch [0.000732421875,0.3565673828125]",
	"T1/w2/record/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w2/record/cc":      "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 192 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 7 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w2/scalar/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w2/scalar/cc":      "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 192 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 7 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"T1/w2/traditional/pr": "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"T1/w2/traditional/cc": "it=4 pull=3 push=1 sparse=1 dirs=<3s1 | edge-pull 3 it 192 ch [0.502685546875,1] | edge-push 1 it 1 ch [0.009033203125,0.009033203125] | vertex 4 it 7 ch [0.009033203125,1] | merge 3 it 0 ch [0.502685546875,1]",
	"D1/w1/default/pr":     "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w1/default/cc":     "it=12 pull=12 push=0 sparse=0 dirs=<12 | edge-pull 12 it 168 ch [0.125,1] | vertex 12 it 12 ch [0.125,1] | merge 12 it 0 ch [0.125,1]",
	"D1/w1/default/bfs":    "it=151 pull=0 push=151 sparse=151 dirs=s151 | edge-push 151 it 151 ch [0.00017146776406035664,0.012517146776406037] | vertex 151 it 151 ch [0.00017146776406035664,0.012517146776406037]",
	"D1/w1/default/sssp":   "it=153 pull=0 push=153 sparse=153 dirs=s153 | edge-push 153 it 153 ch [0.00017146776406035664,0.03772290809327846] | vertex 153 it 153 ch [0.00017146776406035664,0.03772290809327846]",
	"D1/w1/default/kcore":  "it=76 pull=0 push=76 sparse=76 dirs=s76 | edge-push 76 it 76 ch [0.0003429355281207133,0.024691358024691357] | vertex 76 it 76 ch [0.0003429355281207133,0.024691358024691357] | merge 76 it 0 ch [0.0003429355281207133,0.024691358024691357]",
	"D1/w1/record/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w1/record/cc":      "it=12 pull=12 push=0 sparse=0 dirs=<12 | edge-pull 12 it 168 ch [0.125,1] | vertex 12 it 12 ch [0.125,1] | merge 12 it 0 ch [0.125,1]",
	"D1/w1/scalar/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w1/scalar/cc":      "it=152 pull=129 push=23 sparse=21 dirs=<129>2s21 | edge-pull 129 it 4128 ch [0.051440329218107,1] | edge-push 23 it 85 ch [0.00017146776406035664,0.047325102880658436] | vertex 152 it 152 ch [0.00017146776406035664,1] | merge 129 it 0 ch [0.051440329218107,1]",
	"D1/w1/traditional/pr": "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 128 ch [1,1] | vertex 4 it 4 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w1/traditional/cc": "it=152 pull=129 push=23 sparse=21 dirs=<129>2s21 | edge-pull 129 it 4128 ch [0.051440329218107,1] | edge-push 23 it 85 ch [0.00017146776406035664,0.047325102880658436] | vertex 152 it 152 ch [0.00017146776406035664,1] | merge 129 it 0 ch [0.051440329218107,1]",
	"D1/w2/default/pr":     "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w2/default/cc":     "it=12 pull=12 push=0 sparse=0 dirs=<12 | edge-pull 12 it 264 ch [0.125,1] | vertex 12 it 24 ch [0.125,1] | merge 12 it 0 ch [0.125,1]",
	"D1/w2/default/bfs":    "it=151 pull=0 push=151 sparse=151 dirs=s151 | edge-push 151 it 151 ch [0.00017146776406035664,0.012517146776406037] | vertex 151 it 151 ch [0.00017146776406035664,0.012517146776406037]",
	"D1/w2/default/sssp":   "it=153 pull=0 push=153 sparse=153 dirs=s153 | edge-push 153 it 153 ch [0.00017146776406035664,0.03772290809327846] | vertex 153 it 153 ch [0.00017146776406035664,0.03772290809327846]",
	"D1/w2/default/kcore":  "it=76 pull=0 push=76 sparse=76 dirs=s76 | edge-push 76 it 76 ch [0.0003429355281207133,0.024691358024691357] | vertex 76 it 76 ch [0.0003429355281207133,0.024691358024691357] | merge 76 it 0 ch [0.0003429355281207133,0.024691358024691357]",
	"D1/w2/record/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w2/record/cc":      "it=12 pull=12 push=0 sparse=0 dirs=<12 | edge-pull 12 it 264 ch [0.125,1] | vertex 12 it 24 ch [0.125,1] | merge 12 it 0 ch [0.125,1]",
	"D1/w2/scalar/pr":      "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w2/scalar/cc":      "it=152 pull=129 push=23 sparse=21 dirs=<129>2s21 | edge-pull 129 it 8256 ch [0.051440329218107,1] | edge-push 23 it 149 ch [0.00017146776406035664,0.047325102880658436] | vertex 152 it 283 ch [0.00017146776406035664,1] | merge 129 it 0 ch [0.051440329218107,1]",
	"D1/w2/traditional/pr": "it=4 pull=4 push=0 sparse=0 dirs=<4 | edge-pull 4 it 256 ch [1,1] | vertex 4 it 8 ch [1,1] | merge 4 it 0 ch [1,1]",
	"D1/w2/traditional/cc": "it=152 pull=129 push=23 sparse=21 dirs=<129>2s21 | edge-pull 129 it 8256 ch [0.051440329218107,1] | edge-push 23 it 149 ch [0.00017146776406035664,0.047325102880658436] | vertex 152 it 283 ch [0.00017146776406035664,1] | merge 129 it 0 ch [0.051440329218107,1]",
}

// TestTraceShapePinned runs pr, cc, bfs, sssp and kcore on the weighted T
// and D analogs at one and two workers with Trace on, and pr and cc again
// under Record, Scalar and PullTraditional, and holds each run's trace
// shape to its pin.
func TestTraceShapePinned(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
		apps []string
	}{
		{"default", Options{}, []string{"pr", "cc", "bfs", "sssp", "kcore"}},
		{"record", Options{Record: true}, []string{"pr", "cc"}},
		{"scalar", Options{Scalar: true}, []string{"pr", "cc"}},
		{"traditional", Options{Variant: PullTraditional}, []string{"pr", "cc"}},
	}
	for _, d := range []gen.Dataset{gen.Twitter, gen.DimacsUSA} {
		g := gen.AddUniformWeights(analogs1[d](), 97)
		cg := BuildGraph(g)
		for _, workers := range []int{1, 2} {
			for _, v := range variants {
				opt := v.opt
				opt.Workers, opt.Trace = workers, true
				r := NewRunner(cg, opt)
				for _, name := range v.apps {
					key := fmt.Sprintf("%s1/w%d/%s/%s", d.Abbrev(), workers, v.name, name)
					prog, iters := registryProgram(t, cg, name)
					got := traceShape(Run(r, prog, iters))
					if want, ok := tracePins[key]; !ok || got != want {
						t.Errorf("%q: %q,\n\twant %q", key, got, want)
					}
				}
				r.Close()
			}
		}
	}
}

// registryProgram builds the registered program name on cg, with a root of
// 1, k = 3 and four iterations where it takes them, and returns it with its
// iteration bound.
func registryProgram(t *testing.T, cg *Graph, name string) (apps.Program, int) {
	t.Helper()
	ent, err := apps.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	p := ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
	prog, err := ent.New(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	return prog, ent.MaxIters(p)
}

// TestPhaseWallsOneReading holds the trace, the Result and the Fig 5b
// profile to one clock reading per phase boundary: the trace's Edge and
// merge walls sum to EdgeTime exactly and its vertex wall is VertexTime, its
// phase walls and untimed remainder sum to its span, which is Total,
// the profile's Merge is the trace's merge wall, and the profile's span is
// workers × EdgeTime. It covers a merge fold (pr), the mesh's pull and
// in-place rounds (cc), its pull, dense push and list-driven rounds (cc on
// the traditional interface), its list-driven rounds (bfs), and an ordered
// push, dense (push-only pr) and list-driven (kcore).
func TestPhaseWallsOneReading(t *testing.T) {
	skewed := BuildGraph(analogs1[gen.Twitter]())
	mesh := BuildGraph(analogs1[gen.DimacsUSA]())
	for _, c := range []struct {
		name  string
		cg    *Graph
		opt   Options
		app   string
		marks string // direction marks the run must include
		merge bool   // whether its trace must carry a merge phase
	}{
		{"T/pr", skewed, Options{}, "pr", "<", true},
		{"D/cc", mesh, Options{}, "cc", "<", true},
		{"D/cc/traditional", mesh, Options{Variant: PullTraditional}, "cc", "<>s", true},
		{"D/bfs", mesh, Options{}, "bfs", "s", false},
		{"T/pr/push", skewed, Options{Mode: EnginePushOnly}, "pr", ">", true},
		{"D/kcore", mesh, Options{}, "kcore", "s", true},
	} {
		for _, workers := range []int{1, 2} {
			opt := c.opt
			opt.Workers, opt.Trace, opt.Record = workers, true, true
			r := NewRunner(c.cg, opt)
			prog, iters := registryProgram(t, c.cg, c.app)
			res := Run(r, prog, iters)
			r.Close()
			name := fmt.Sprintf("%s/w%d", c.name, workers)
			for _, m := range c.marks {
				if !strings.ContainsRune(res.Trace.Directions, m) {
					t.Errorf("%s: directions %q have no %q round", name, res.Trace.Directions, m)
				}
			}
			var edge, merge, vertex time.Duration
			for _, ph := range res.Trace.Phases {
				switch ph.Phase {
				case "edge-pull", "edge-push":
					edge += ph.Wall
				case "merge":
					merge = ph.Wall
				case "vertex":
					vertex = ph.Wall
				}
			}
			if _, ok := phaseByName(res.Trace, "merge"); ok != c.merge {
				t.Errorf("%s: merge phase traced = %v, want %v", name, ok, c.merge)
			}
			if edge+merge != res.EdgeTime {
				t.Errorf("%s: edge %v + merge %v != EdgeTime %v", name, edge, merge, res.EdgeTime)
			}
			if vertex != res.VertexTime {
				t.Errorf("%s: vertex %v != VertexTime %v", name, vertex, res.VertexTime)
			}
			if tr := res.Trace; tr.Span != res.Total || edge+merge+vertex+tr.Untimed != tr.Span || tr.Untimed <= 0 {
				t.Errorf("%s: edge %v + merge %v + vertex %v + untimed %v != span %v (Total %v)",
					name, edge, merge, vertex, tr.Untimed, tr.Span, res.Total)
			}
			prof := res.EdgeProfile
			if prof.Merge != merge {
				t.Errorf("%s: profile Merge %v != traced merge %v", name, prof.Merge, merge)
			}
			if span := time.Duration(workers) * res.EdgeTime; prof.Idle > 0 && prof.Work+prof.Merge+prof.Idle != span {
				t.Errorf("%s: Work %v + Merge %v + Idle %v != workers × EdgeTime %v",
					name, prof.Work, prof.Merge, prof.Idle, span)
			}
		}
	}
}
