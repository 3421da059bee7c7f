package main

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/race"
)

// The benchmark builds and starts the program under test with paths
// relative to the module root, where `go run ./bench` runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// miniature is every workload on graphs small enough that all five, traced
// and untraced, finish in a few seconds.
var miniature = sizing{
	dense:    graphSpec{gen.CitPatents, 1},
	frontier: graphSpec{gen.CitPatents, 1},
	mesh:     graphSpec{gen.DimacsUSA, 1},
	serve:    graphSpec{gen.CitPatents, 1},
	tracedOps: map[string]int{
		"kernel-dense": 3, "kernel-frontier": 2, "serve-read": 150, "serve-mutate": 6, "cluster-read": 3,
	},
	warmup: 100 * time.Millisecond,
	setups: 1,
}

// TestMiniature runs all five workloads and holds each pass to the
// declaration tables: every declared metric reported, once, finite, and
// every check passing on correct answers.
func TestMiniature(t *testing.T) {
	ctx := context.Background()
	e := &env{ps: &procSet{}, http: newHTTPClient(), nproc: runtime.NumCPU(), size: miniature}
	t.Cleanup(func() {
		if err := e.ps.stopAll(); err != nil {
			t.Error(err)
		}
		if err := leftovers(); err != nil {
			t.Error(err)
		}
	})
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !strings.HasPrefix(w.name, "kernel-") {
				if testing.Short() {
					t.Skip("starts grazelle subprocesses")
				}
				if e.bin == "" {
					bin, err := buildGrazelle(ctx)
					if err != nil {
						t.Fatal(err)
					}
					e.bin = bin
				}
			}
			// The race detector slows a round of ten engine runs past the
			// miniature's window.
			window := 0.5
			if race.Enabled {
				window = 5
			}
			untraced, err := runUntraced(ctx, e, w, 1, window)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(ctx, e, w, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				r     *runResult
				decls []metricDecl
			}{{untraced, endToEnd}, {traced, perLayer}} {
				if !c.r.Correct || c.r.Failed != 0 || c.r.Attempted == 0 {
					t.Errorf("traced=%t: attempted %d, failed %d: %v", c.r.Traced, c.r.Attempted, c.r.Failed, c.r.Failures)
				}
				if len(c.r.Notes) > 0 {
					t.Errorf("traced=%t: %v", c.r.Traced, c.r.Notes)
				}
				if len(c.r.Metrics) != len(c.decls) {
					t.Errorf("traced=%t: %d metrics reported, %d declared", c.r.Traced, len(c.r.Metrics), len(c.decls))
				}
				for _, d := range c.decls {
					v, ok := c.r.Metrics[d.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
						t.Errorf("traced=%t: metric %s = %+v (reported %t)", c.r.Traced, d.Name, v, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if untraced.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, untraced.Metrics[d.Name].Value)
				}
			}
		})
	}
}

// TestChecksCatchCorruptAnswers feeds each correctness check a wrong answer.
func TestChecksCatchCorruptAnswers(t *testing.T) {
	if checkRankSum(1) != nil || checkRankSum(1+1e-6) == nil || checkRankSum(math.NaN()) == nil {
		t.Error("rank-sum check")
	}
	if checkCount("components", 7, 7) != nil || checkCount("components", 7, 8) == nil {
		t.Error("count check")
	}

	one, seven := 1.0, 7
	good := summary{RankSum: &one, Components: &seven, Reachable: &seven}
	for _, app := range []string{"pr", "ppr", "cc", "bfs"} {
		if err := checkSummary(query{App: app}, good, 7); err != nil {
			t.Errorf("%s: good summary rejected: %v", app, err)
		}
		if checkSummary(query{App: app}, summary{}, 7) == nil {
			t.Errorf("%s: summary without its statistic accepted", app)
		}
	}
	if checkSummary(query{App: "cc"}, good, 8) == nil {
		t.Error("cc: wrong component count accepted")
	}

	// A cache-served body must equal one of the misses that filled its key.
	sr := &serveRead{
		fills:  map[string]map[uint64]bool{"k": {1: true}},
		served: []servedFromCache{{"k", 1}},
	}
	if bad := sr.finish(context.Background()); len(bad) != 0 {
		t.Errorf("identical hit rejected: %v", bad)
	}
	sr.served = append(sr.served, servedFromCache{"k", 2})
	if len(sr.finish(context.Background())) == 0 {
		t.Error("hit with a different body accepted")
	}

	// bfs roots are held against the sequential reference.
	g := gen.Generate(gen.CitPatents, 1)
	sr = &serveRead{g: g, asked: map[uint32]int{0: 1}, reached: map[uint32]int{0: reachedRef(g, 0)}}
	if bad := sr.finish(context.Background()); len(bad) != 0 {
		t.Errorf("correct reachable count rejected: %v", bad)
	}
	sr.reached[0]++
	if len(sr.finish(context.Background())) == 0 {
		t.Error("wrong reachable count accepted")
	}

	// serve-mutate replays the batches on its own copy of the edge list.
	batch := []graph.EdgeOp{{Src: 0, Dst: 1}}
	sm := &serveMutate{g: g, batches: [][]graph.EdgeOp{batch}}
	sm.claimed = map[int]int{1: componentsRef(graph.ApplyEdgeOps(g, batch))}
	if bad := sm.finish(context.Background()); len(bad) != 0 {
		t.Errorf("correct component count rejected: %v", bad)
	}
	sm.claimed[1]++
	if len(sm.finish(context.Background())) == 0 {
		t.Error("wrong component count after a mutation accepted")
	}

	// Routed bodies are compared modulo the per-process fields only.
	a := `{"app":"pr","elapsed_ms":12,"partitions":2,"rank_sum":1,"run_id":"r-1"}`
	b := `{"app":"pr","elapsed_ms":3,"partitions":1,"rank_sum":1,"run_id":"w-9"}`
	c := `{"app":"pr","elapsed_ms":3,"partitions":1,"rank_sum":0.5,"run_id":"w-9"}`
	if normalizeBody([]byte(a)) != normalizeBody([]byte(b)) {
		t.Error("bodies differing only in run_id/elapsed_ms/partitions compare unequal")
	}
	if normalizeBody([]byte(a)) == normalizeBody([]byte(c)) {
		t.Error("bodies differing in rank_sum compare equal")
	}

	// A values body parses to the same summary as its small twin.
	s, err := parseSummary([]byte(`{"app":"bfs","elapsed_ms":4,"reachable":9,"run_id":"x","values":[1,2,3]}`))
	if err != nil || s.Reachable == nil || *s.Reachable != 9 || s.ElapsedMS != 4 {
		t.Errorf("parseSummary: %+v, %v", s, err)
	}
}

// TestMeshRootsPairUp checks the property meshRoots exists for: whatever
// the seed, a round's searches add up to (almost) the same iteration count.
func TestMeshRootsPairUp(t *testing.T) {
	spec := graphSpec{gen.DimacsUSA, 1}
	g := gen.Generate(spec.Dataset, spec.Scale)
	rows, cols := meshDims(spec, g)
	if rows != 72 || cols != 81 {
		t.Fatalf("mesh is %d×%d, want 72×81", rows, cols)
	}
	lo, hi := math.MaxInt, 0
	for seed := int64(1); seed <= 20; seed++ {
		total := 0
		for _, v := range meshRoots(spec, g, rand.New(rand.NewSource(seed)), bfsRoots) {
			r, c := int(v)/cols, int(v)%cols
			total += max(r, rows-1-r) + max(c, cols-1-c)
		}
		lo, hi = min(lo, total), max(hi, total)
	}
	// An odd side length makes a pair's sum vary by one.
	if hi-lo > bfsRoots/2 {
		t.Errorf("eccentricity total ranges %d..%d over seeds", lo, hi)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 6, 8, 7}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDecl{"op_ms_p50", "ms", "lower", 0.10}
	thr := metricDecl{"throughput_ops", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d        metricDecl
		old, new []float64
		want     string
	}{
		{lat, []float64{100}, []float64{105}, "within bound"},
		{lat, []float64{100}, []float64{115}, "regressed"},
		{lat, []float64{100}, []float64{80}, "improved"},
		{thr, []float64{100}, []float64{80}, "regressed"},
		{thr, []float64{100}, []float64{120}, "improved"},
		{lat, []float64{100, 130}, []float64{140, 141}, "unresolved"},
	} {
		if got, _, _ := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.d.Name, c.old, c.new, got, c.want)
		}
	}
}

// TestManifest holds BENCHMARK.json to the declaration tables and the
// tables to the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		setup = setup || d == metricDecl{"setup_s", "s", "lower", d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric")
	}
}
