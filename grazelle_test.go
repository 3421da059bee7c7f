package grazelle

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/store"
)

func twitterAnalog(t *testing.T) *Graph {
	t.Helper()
	g, err := GenerateDataset("T", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateDatasetNames(t *testing.T) {
	for _, name := range []string{"cit-Patents", "dimacs-usa", "livejournal", "twitter-2010", "friendster", "uk-2007", "C", "D", "L", "T", "F", "U"} {
		g, err := GenerateDataset(name, 0.05)
		if err != nil {
			t.Fatalf("GenerateDataset(%q): %v", name, err)
		}
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Fatalf("GenerateDataset(%q) empty", name)
		}
	}
	if _, err := GenerateDataset("bogus", 1); err == nil {
		t.Error("bogus dataset accepted")
	}
}

func TestNewGraphValidates(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{Src: 0, Dst: 5}}, false); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g, err := NewGraph(3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 || g.Weighted() {
		t.Error("graph shape wrong")
	}
	if eff := g.PackingEfficiency(); eff != 0.25 {
		// Two destinations of in-degree 1: each one vector with 1/4 lanes.
		t.Errorf("PackingEfficiency = %v, want 0.25", eff)
	}
}

func TestPageRankEndToEnd(t *testing.T) {
	g := twitterAnalog(t)
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	res := e.PageRank(10)
	if math.Abs(res.Sum-1) > 1e-9 {
		t.Errorf("rank sum = %v", res.Sum)
	}
	if res.Stats.Iterations != 10 || res.Stats.PullIterations != 10 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if len(res.Ranks) != g.NumVertices() {
		t.Error("rank vector length wrong")
	}
}

func TestConnectedComponentsEndToEnd(t *testing.T) {
	g, err := NewGraph(6, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 2, Dst: 3}, {Src: 3, Dst: 2},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	res := e.ConnectedComponents()
	if res.NumComponents() != 4 { // {0,1} {2,3} {4} {5}
		t.Errorf("NumComponents = %d, want 4", res.NumComponents())
	}
	if res.Components[1] != 0 || res.Components[3] != 2 {
		t.Errorf("components = %v", res.Components)
	}
}

func TestBFSEndToEnd(t *testing.T) {
	g := twitterAnalog(t)
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	res := e.BFS(0)
	if res.Parents[0] != 0 {
		t.Error("root is not its own parent")
	}
	if res.Reachable() < 1 {
		t.Error("BFS reached nothing")
	}
	for v, p := range res.Parents {
		if p != NoParent && (p < 0 || int(p) >= g.NumVertices()) {
			t.Fatalf("parent[%d] = %d out of range", v, p)
		}
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := twitterAnalog(t)
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	if _, err := e.SSSP(0); err == nil {
		t.Error("SSSP accepted an unweighted graph")
	}
	if _, err := e.WeightedRank(5); err == nil {
		t.Error("WeightedRank accepted an unweighted graph")
	}
}

func TestSSSPEndToEnd(t *testing.T) {
	wg := gen.AddUniformWeights(gen.Grid(6, 6, false, 1), 2)
	g, err := NewGraph(wg.NumVertices, wg.Edges, true)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()
	res, err := e.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	want := apps.ReferenceSSSP(wg, 0)
	for v := range want {
		if math.Abs(res.Dist[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Dist[v], want[v])
		}
	}
	if res.Finite() != g.NumVertices() {
		t.Error("mesh should be fully reachable")
	}
}

func TestEngineOptionVariants(t *testing.T) {
	g := twitterAnalog(t)
	var ranks [][]float64
	for _, opt := range []Options{
		{Workers: 2},
		{Workers: 2, Variant: Traditional},
		{Workers: 2, Scalar: true},
		{Workers: 2, Mode: PushOnly},
		{Workers: 2, Sockets: 2},
		{Workers: 1, Variant: TraditionalNonatomic},
		{Workers: 2, ChunkVectors: 64, Record: true},
	} {
		e := NewEngine(g, opt)
		res := e.PageRank(5)
		e.Close()
		if math.Abs(res.Sum-1) > 1e-9 {
			t.Errorf("opts %+v: rank sum %v", opt, res.Sum)
		}
		ranks = append(ranks, res.Ranks)
	}
	// All configurations must agree.
	for i := 1; i < len(ranks); i++ {
		for v := range ranks[0] {
			if math.Abs(ranks[i][v]-ranks[0][v]) > 1e-10 {
				t.Fatalf("config %d diverges at vertex %d", i, v)
			}
		}
	}
}

func TestRecordedCounters(t *testing.T) {
	g := twitterAnalog(t)
	e := NewEngine(g, Options{Workers: 2, Record: true})
	defer e.Close()
	res := e.PageRank(2)
	if res.Stats.EdgeCounters.EdgesProcessed == 0 {
		t.Error("Record did not collect counters")
	}
	e2 := NewEngine(g, Options{Workers: 2})
	defer e2.Close()
	res2 := e2.PageRank(2)
	if res2.Stats.EdgeCounters.EdgesProcessed != 0 {
		t.Error("counters collected without Record")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := twitterAnalog(t)
	base := filepath.Join(t.TempDir(), "tw")
	if err := g.Save(base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGraphPair(base)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != g.NumEdges() || loaded.NumVertices() != g.NumVertices() {
		t.Fatal("pair round trip changed the graph")
	}
	// Results must match across the round trip.
	e1 := NewEngine(g, Options{Workers: 2})
	e2 := NewEngine(loaded, Options{Workers: 2})
	defer e1.Close()
	defer e2.Close()
	a, b := e1.PageRank(5), e2.PageRank(5)
	for v := range a.Ranks {
		if math.Abs(a.Ranks[v]-b.Ranks[v]) > 1e-10 {
			t.Fatalf("rank[%d] differs after reload", v)
		}
	}
	single, err := LoadGraph(base + "-pull")
	if err != nil {
		t.Fatal(err)
	}
	if single.NumEdges() != g.NumEdges() {
		t.Error("single-file load wrong")
	}
}

// TestLoadersRoundTrip: a Save'd "-push" file read back by LoadGraph, and
// added to a Store by AddFromFile, has the graph's counts and answers pr with
// the same lanes; a SNAP text edge list with '#' and '%' comments loads by
// LoadEdgeList with the counts its edge lines give.
func TestLoadersRoundTrip(t *testing.T) {
	g := twitterAnalog(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "tw")
	if err := g.Save(base); err != nil {
		t.Fatal(err)
	}
	pr := func(e *Engine) []uint64 {
		t.Helper()
		res, err := e.Run(context.Background(), "pr", Params{Iters: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Props
	}
	ref := NewEngine(g, Options{Workers: 2})
	defer ref.Close()
	want := pr(ref)

	loaded, err := LoadGraph(base + "-push")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(loaded, Options{Workers: 2})
	defer e.Close()
	if loaded.NumVertices() != g.NumVertices() || loaded.NumEdges() != g.NumEdges() || !slices.Equal(pr(e), want) {
		t.Error("LoadGraph of the -push file changed the graph")
	}

	st, err := OpenStore(StoreConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AddFromFile("tw", base+"-push"); err != nil {
		t.Fatal(err)
	}
	h, err := st.Acquire("tw")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Graph().NumVertices() != g.NumVertices() || h.Graph().NumEdges() != g.NumEdges() || !slices.Equal(pr(h.Engine()), want) {
		t.Error("AddFromFile of the -push file changed the graph")
	}

	snap := filepath.Join(dir, "edges.txt")
	text := "# SNAP header\n% a comment\n0 1\n1 2\n# mid-file comment\n2 0\n2 7\n"
	if err := os.WriteFile(snap, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	el, err := LoadEdgeList(snap)
	if err != nil {
		t.Fatal(err)
	}
	if el.NumVertices() != 8 || el.NumEdges() != 4 || el.Weighted() {
		t.Errorf("LoadEdgeList: %d vertices, %d edges, weighted %t; want 8, 4, false", el.NumVertices(), el.NumEdges(), el.Weighted())
	}
}

// TestOptionsSurface pins the engine's, the facade's and the store's option
// fields. Every field is set by a binary, a benchfig experiment or an
// ablation row; adding one means naming its setter here, and a field whose
// setter goes away should go with it.
func TestOptionsSurface(t *testing.T) {
	coreFields := []string{
		"Pool",               // Store.runnerOptions: serve's one shared pool
		"Workers",            // grazelle -n
		"Topology",           // grazelle -u (NewEngine's socket split)
		"ChunkVectors",       // grazelle -s
		"Variant",            // grazelle -variant (the vectorized pull's)
		"Scalar",             // grazelle -scalar
		"Mode",               // grazelle -engine
		"PullDegreeShare",    // benchfig dirsweep
		"Record",             // grazelle -counters
		"Trace",              // serve (always on)
		"AblateFrontierWork", // benchfig paper rows; BenchmarkAblationSparseFrontier
		"AblateFullVector",   // BenchmarkAblationFullVectorPath (DESIGN.md §5)
		"AblateSIMD",         // benchfig fig10's software-vector column
		"OnRelease",          // Store.runnerOptions: LRU clock and run counts
	}
	facadeFields := []string{
		"Workers",      // grazelle -n
		"Sockets",      // grazelle -u
		"ChunkVectors", // grazelle -s
		"Variant",      // grazelle -variant
		"Scalar",       // grazelle -scalar
		"Mode",         // grazelle -engine
		"Record",       // grazelle -counters
		"Trace",        // serve (always on)
		"Partitions",   // deprecated and ignored; set only by bench/cluster.go
	}
	storeConfigFields := []string{
		"DataDir",           // serve -data-dir
		"MemBudgetBytes",    // serve -mem-budget
		"MaxInFlight",       // serve -max-inflight
		"MaxQueue",          // serve -max-queue
		"Workers",           // serve -n
		"DeltaBudgetBytes",  // serve -delta-budget
		"CompactAfterBytes", // serve -compact-after
		"Options",           // serve (Trace always on)
	}
	storeFields := []string{
		"DataDir",      // OpenStore: StoreConfig.DataDir
		"MemBudget",    // OpenStore: StoreConfig.MemBudgetBytes
		"MaxInFlight",  // OpenStore: StoreConfig.MaxInFlight
		"MaxQueue",     // OpenStore: StoreConfig.MaxQueue
		"Workers",      // OpenStore: StoreConfig.Workers
		"DeltaBudget",  // OpenStore: StoreConfig.DeltaBudgetBytes
		"CompactAfter", // OpenStore: StoreConfig.CompactAfterBytes
		"Engine",       // OpenStore: StoreConfig.Options
	}
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(core.Options{}), coreFields},
		{reflect.TypeOf(Options{}), facadeFields},
		{reflect.TypeOf(StoreConfig{}), storeConfigFields},
		{reflect.TypeOf(store.Config{}), storeFields},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			got = append(got, tc.typ.Field(i).Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s fields = %v, want %v", tc.typ, got, tc.want)
		}
	}
}
