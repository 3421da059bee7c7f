package apps

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraphs yields a spread of shapes: skewed scale-free, mesh, random,
// plus a hand-built multi-component graph.
func testGraphs() map[string]*graph.Graph {
	multi := graph.NewBuilder(10).
		AddEdge(0, 1).AddEdge(1, 0).AddEdge(1, 2).AddEdge(2, 1).
		AddEdge(4, 5).AddEdge(5, 4).
		AddEdge(7, 8).AddEdge(8, 7).AddEdge(8, 9).AddEdge(9, 8).
		MustBuild()
	return map[string]*graph.Graph{
		"rmat":  gen.RMAT(8, 1200, gen.DefaultRMAT, 1),
		"mesh":  gen.Grid(12, 13, false, 2),
		"er":    gen.ErdosRenyi(150, 900, 3),
		"multi": multi,
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		p := NewPageRank(g)
		res := RunSequential(p, g, 20)
		want := ReferencePageRank(g, 0.85, 20)
		got := Ranks(res.Props)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-12 {
				t.Fatalf("%s: rank[%d] = %v, want %v", name, v, got[v], want[v])
			}
		}
		if sum := RankSum(res.Props); math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: rank sum = %v, want 1 (the artifact's check)", name, sum)
		}
		if res.Iterations != 20 {
			t.Errorf("%s: ran %d iterations, want 20", name, res.Iterations)
		}
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	// A pure sink: vertex 2 has no out-edges.
	g := graph.NewBuilder(3).AddEdge(0, 1).AddEdge(1, 2).AddEdge(0, 2).MustBuild()
	res := RunSequential(NewPageRank(g), g, 50)
	if sum := RankSum(res.Props); math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank sum with dangling vertex = %v, want 1", sum)
	}
}

func TestConnCompMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		for _, p := range []*ConnComp{NewConnComp(), NewConnCompWriteIntense()} {
			res := RunSequential(p, g, 1<<20)
			got := Components(res.Props)
			want := ReferenceComponents(g)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s/%+v: component[%d] = %d, want %d", name, p, v, got[v], want[v])
				}
			}
		}
	}
}

func TestConnCompSemanticsOnSymmetricGraph(t *testing.T) {
	// The hand-built multi graph is symmetric with components
	// {0,1,2} {3} {4,5} {6} {7,8,9}.
	g := testGraphs()["multi"]
	got := Components(RunSequential(NewConnComp(), g, 1<<20).Props)
	want := []uint32{0, 0, 0, 3, 4, 4, 6, 7, 7, 7}
	for v := range want {
		if got[v] != want[v] {
			t.Errorf("component[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for name, g := range testGraphs() {
		res := RunSequential(NewBFS(0), g, 1<<20)
		want := ReferenceBFS(g, 0)
		for v := range want {
			if res.Props[v] != want[v] {
				t.Fatalf("%s: parent[%d] = %d, want %d", name, v, res.Props[v], want[v])
			}
		}
	}
}

func TestBFSUnreachableStaysUnvisited(t *testing.T) {
	g := testGraphs()["multi"]
	res := RunSequential(NewBFS(0), g, 1<<20)
	for _, v := range []uint32{3, 4, 5, 6, 7, 8, 9} {
		if res.Props[v] != NoParent {
			t.Errorf("unreachable vertex %d has parent %d", v, res.Props[v])
		}
	}
	if res.Props[0] != 0 {
		t.Errorf("root parent = %d, want itself", res.Props[0])
	}
}

func TestBFSParentsFormTree(t *testing.T) {
	g := gen.RMAT(9, 4000, gen.DefaultRMAT, 9)
	res := RunSequential(NewBFS(0), g, 1<<20)
	// Every visited non-root vertex's parent must be visited and must have
	// an edge to the vertex.
	hasEdge := map[[2]uint32]bool{}
	for _, e := range g.Edges {
		hasEdge[[2]uint32{e.Src, e.Dst}] = true
	}
	for v, p := range res.Props {
		if p == NoParent || v == 0 {
			continue
		}
		if res.Props[p] == NoParent {
			t.Fatalf("vertex %d's parent %d is unvisited", v, p)
		}
		if !hasEdge[[2]uint32{uint32(p), uint32(v)}] {
			t.Fatalf("no edge %d -> %d backing the parent link", p, v)
		}
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(8, 1500, gen.DefaultRMAT, 4), 5)
	res := RunSequential(NewSSSP(0), g, 1<<20)
	got := Distances(res.Props)
	want := ReferenceSSSP(g, 0)
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
			t.Fatalf("reachability of %d differs", v)
		}
		if !math.IsInf(want[v], 1) && math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestSSSPOnWeightedMesh(t *testing.T) {
	g := gen.Grid(8, 8, true, 7)
	res := RunSequential(NewSSSP(0), g, 1<<20)
	got := Distances(res.Props)
	want := ReferenceSSSP(g, 0)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
		}
	}
	if got[0] != 0 {
		t.Error("root distance nonzero")
	}
}

func TestWeightedRankConservesMass(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(7, 600, gen.DefaultRMAT, 8), 9)
	p := NewWeightedRank(g)
	res := RunSequential(p, g, 15)
	if sum := RankSum(res.Props); math.Abs(sum-1) > 1e-9 {
		t.Errorf("weighted rank sum = %v, want 1", sum)
	}
}

func TestWeightedRankReducesToPageRankOnUnitWeights(t *testing.T) {
	base := gen.RMAT(7, 500, gen.DefaultRMAT, 2)
	unit := base.Clone()
	unit.Weighted = true
	for i := range unit.Edges {
		unit.Edges[i].Weight = 1
	}
	pr := RunSequential(NewPageRank(base), base, 10)
	wr := RunSequential(NewWeightedRank(unit), unit, 10)
	for v := range pr.Props {
		if math.Abs(Ranks(pr.Props)[v]-Ranks(wr.Props)[v]) > 1e-12 {
			t.Fatalf("unit-weight WeightedRank diverges from PageRank at %d", v)
		}
	}
}

func TestFrontierDrivenTermination(t *testing.T) {
	// On a path graph BFS takes exactly length rounds then stops on an
	// empty frontier, well before the iteration cap.
	b := graph.NewBuilder(6)
	for v := uint32(0); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.MustBuild()
	res := RunSequential(NewBFS(0), g, 1<<20)
	if res.Iterations > 6 {
		t.Errorf("BFS ran %d iterations on a 6-path", res.Iterations)
	}
	for v := uint32(1); v < 6; v++ {
		if res.Props[v] != uint64(v-1) {
			t.Errorf("parent[%d] = %d, want %d", v, res.Props[v], v-1)
		}
	}
}

func TestProgramFlagContracts(t *testing.T) {
	g := gen.ErdosRenyi(20, 50, 1)
	cases := []struct {
		p                             Program
		frontier, converged, weighted bool
	}{
		{NewPageRank(g), false, false, false},
		{NewConnComp(), true, false, false},
		{NewConnCompWriteIntense(), true, false, false},
		{NewBFS(0), true, true, false},
		{NewSSSP(0), true, false, true},
		{NewWeightedRank(gen.AddUniformWeights(g, 2)), false, false, true},
	}
	for _, c := range cases {
		if c.p.UsesFrontier() != c.frontier {
			t.Errorf("%+v: UsesFrontier = %v", c.p, c.p.UsesFrontier())
		}
		if c.p.TracksConverged() != c.converged {
			t.Errorf("%+v: TracksConverged = %v", c.p, c.p.TracksConverged())
		}
		if c.p.Weighted() != c.weighted {
			t.Errorf("%+v: Weighted = %v", c.p, c.p.Weighted())
		}
	}
	// CC variants differ only in write intent.
	if !NewConnComp().SkipEqualWrites() || NewConnCompWriteIntense().SkipEqualWrites() {
		t.Error("CC SkipEqualWrites variants wrong")
	}
}

// TestProgramSurface pins Program's method set. Every method is read by the
// engine (internal/core; the baselines read the same set); adding one means
// naming its reader here, and a method no engine reads should go.
func TestProgramSurface(t *testing.T) {
	readers := []struct{ method, reader string }{
		{"Apply", "core.applyBody: the Vertex phase of non-select kinds"},
		{"Combine", "core.fuse.step: the FusedNone per-edge fold"},
		{"Identity", "core.applyBody and pullSABody: the accumulator reset"},
		{"InitConverged", "core.ExecContext.Init"},
		{"InitFrontier", "core.ExecContext.Init"},
		{"InitProps", "core.ExecContext.Init"},
		{"Message", "core.fuse.step: the FusedNone per-edge message"},
		{"PreIteration", "core.runLoop: once per round, after the census"},
		{"SkipEqualWrites", "core.pushBody and edgePullTraditional"},
		{"TracksConverged", "core.pullsBySpan, pushBody and newWordBits"},
		{"UsesFrontier", "core.runLoop (census and direction), pullsBySpan and pushBody"},
		{"Weighted", "core.RunEdgePush, edgePullSA and the sparse round: fuseFor's weights"},
	}
	typ := reflect.TypeOf((*Program)(nil)).Elem()
	var got, want []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	for _, r := range readers {
		want = append(want, r.method)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Program methods = %v, want %v", got, want)
	}
}

func TestCombineIdentityLaws(t *testing.T) {
	g := gen.ErdosRenyi(10, 20, 1)
	programs := []Program{NewPageRank(g), NewConnComp(), NewBFS(0), NewSSSP(0)}
	// All values must be valid float64 bit patterns (SSSP and PageRank lanes
	// are always real floats; NaN patterns never occur in a run).
	values := []uint64{0, 1, 42, f64(0.5), f64(123.25), f64(1e300)}
	for _, p := range programs {
		id := p.Identity()
		for _, v := range values {
			if got := p.Combine(id, v); got != v {
				t.Errorf("%T: Combine(identity, %#x) = %#x", p, v, got)
			}
			if got := p.Combine(v, id); got != v {
				t.Errorf("%T: Combine(%#x, identity) = %#x", p, v, got)
			}
		}
		// Commutativity on a sample.
		for _, a := range values {
			for _, b := range values {
				if p.Combine(a, b) != p.Combine(b, a) {
					t.Errorf("%T: Combine not commutative on %#x, %#x", p, a, b)
				}
			}
		}
	}
}

func TestInitFrontierShapes(t *testing.T) {
	g := gen.ErdosRenyi(30, 60, 1)
	f := frontier.NewDense(g.NumVertices)
	NewPageRank(g).InitFrontier(f)
	if f.Count() != g.NumVertices {
		t.Error("PageRank frontier should start full")
	}
	f.Clear()
	NewBFS(5).InitFrontier(f)
	if f.Count() != 1 || !f.Contains(5) {
		t.Error("BFS frontier should start as {root}")
	}
	c := frontier.NewDense(g.NumVertices)
	NewBFS(5).InitConverged(c)
	if !c.Contains(5) || c.Count() != 1 {
		t.Error("BFS converged set should start as {root}")
	}
}
