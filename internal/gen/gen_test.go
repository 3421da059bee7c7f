package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a := RMAT(8, 1000, DefaultRMAT, 42)
	b := RMAT(8, 1000, DefaultRMAT, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	c := RMAT(8, 1000, DefaultRMAT, 43)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical graphs")
	}
}

func TestRMATShape(t *testing.T) {
	g := RMAT(10, 5000, DefaultRMAT, 1)
	if g.NumVertices != 1024 {
		t.Errorf("NumVertices = %d, want 1024", g.NumVertices)
	}
	if g.NumEdges() != 5000 {
		t.Errorf("NumEdges = %d, want 5000", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("R-MAT emitted a self loop")
		}
	}
}

func TestRMATSkewIncreasesWithA(t *testing.T) {
	mild := RMAT(12, 40000, RMATParams{A: 0.30, B: 0.25, C: 0.25, D: 0.20}, 7)
	skewed := RMAT(12, 40000, RMATParams{A: 0.70, B: 0.15, C: 0.10, D: 0.05}, 7)
	if graph.MaxDegree(skewed.InDegrees()) <= graph.MaxDegree(mild.InDegrees()) {
		t.Errorf("higher A should yield higher max in-degree: mild=%d skewed=%d",
			graph.MaxDegree(mild.InDegrees()), graph.MaxDegree(skewed.InDegrees()))
	}
}

func TestRMATValidatesParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RMAT accepted parameters that do not sum to 1")
		}
	}()
	RMAT(4, 10, RMATParams{A: 0.9, B: 0.9, C: 0, D: 0}, 1)
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4, false, 1)
	if g.NumVertices != 12 {
		t.Errorf("NumVertices = %d, want 12", g.NumVertices)
	}
	// Undirected mesh edges: rows*(cols-1) + (rows-1)*cols horizontal+vertical
	// pairs, each stored as two directed edges.
	want := 2 * (3*3 + 2*4)
	if g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Mesh degree is bounded by 4.
	for v, d := range g.OutDegrees() {
		if d > 4 || d < 2 {
			t.Fatalf("vertex %d has out-degree %d, want 2..4", v, d)
		}
	}
	// Symmetry: in-degree equals out-degree everywhere.
	in := g.InDegrees()
	for v, d := range g.OutDegrees() {
		if in[v] != d {
			t.Fatalf("vertex %d: in %d != out %d", v, in[v], d)
		}
	}
}

func TestGridWeightedSymmetric(t *testing.T) {
	g := Grid(4, 4, true, 9)
	if !g.Weighted {
		t.Fatal("weighted grid not marked weighted")
	}
	// Each undirected pair must carry equal weights in both directions.
	type key struct{ a, b uint32 }
	w := map[key]float32{}
	for _, e := range g.Edges {
		w[key{e.Src, e.Dst}] = e.Weight
	}
	for k, v := range w {
		if rv, ok := w[key{k.b, k.a}]; !ok || rv != v {
			t.Fatalf("asymmetric weight on %v: %v vs %v", k, v, rv)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(100, 500, 3)
	if g.NumVertices != 100 || g.NumEdges() != 500 {
		t.Fatalf("wrong shape: %d vertices, %d edges", g.NumVertices, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddUniformWeights(t *testing.T) {
	g := ErdosRenyi(50, 200, 3)
	w := AddUniformWeights(g, 11)
	if !w.Weighted {
		t.Fatal("not marked weighted")
	}
	if g.Weighted {
		t.Fatal("AddUniformWeights mutated its input")
	}
	for _, e := range w.Edges {
		if e.Weight < 1 || e.Weight >= 10 {
			t.Fatalf("weight %v out of [1,10)", e.Weight)
		}
	}
}

func TestGenerateAllDatasets(t *testing.T) {
	for _, d := range AllDatasets {
		g := Generate(d, 0.25)
		if g.NumEdges() == 0 || g.NumVertices == 0 {
			t.Fatalf("%s: empty analog", d)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
	}
}

func TestGenerateSkewOrdering(t *testing.T) {
	// The uk-2007 analog must be the most skewed scale-free analog, and the
	// dimacs analog must have near-constant degree, mirroring Table 1.
	uk := Measure(UK2007, Generate(UK2007, 0.25))
	tw := Measure(Twitter, Generate(Twitter, 0.25))
	dm := Measure(DimacsUSA, Generate(DimacsUSA, 0.25))
	if uk.MaxInDegree <= tw.MaxInDegree {
		t.Errorf("uk analog (max in-deg %d) should be more skewed than twitter analog (%d)",
			uk.MaxInDegree, tw.MaxInDegree)
	}
	if dm.MaxInDegree > 4 {
		t.Errorf("dimacs analog max in-degree = %d, want <= 4", dm.MaxInDegree)
	}
}

func TestGenerateScaleGrowsEdges(t *testing.T) {
	for _, d := range []Dataset{Twitter, DimacsUSA} {
		small := Generate(d, 0.25)
		big := Generate(d, 1.0)
		if big.NumEdges() <= small.NumEdges() {
			t.Errorf("%s: scale 1.0 (%d edges) should exceed scale 0.25 (%d)",
				d, big.NumEdges(), small.NumEdges())
		}
	}
	// The mesh's sides shrink with the scale but never below two vertices.
	if g := Generate(DimacsUSA, 1e-6); g.NumVertices != 4 || g.NumEdges() != 8 {
		t.Errorf("D at scale 1e-6: %d vertices, %d edges, want the 2×2 mesh (4, 8)",
			g.NumVertices, g.NumEdges())
	}
}

func TestParseDataset(t *testing.T) {
	for _, d := range AllDatasets {
		got, err := ParseDataset(d.Abbrev())
		if err != nil || got != d {
			t.Errorf("ParseDataset(%q) = %v, %v", d.Abbrev(), got, err)
		}
		got, err = ParseDataset(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDataset(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDataset("bogus"); err == nil {
		t.Error("ParseDataset accepted a bogus name")
	}
}

func TestRMATPickInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RMAT(6, 100, DefaultRMAT, seed)
		return g.Validate() == nil && g.NumVertices == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// generated keeps BenchmarkGenerate's result live.
var generated *graph.Graph

// BenchmarkGenerate times whole analog generation, sort included, for the
// benchmark's four graphs: the web analog at scale 4, the R-MAT analog at
// scales 4 and 8, and the mesh at scale 4.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name  string
		d     Dataset
		scale float64
	}{{"U4", UK2007, 4}, {"T4", Twitter, 4}, {"T8", Twitter, 8}, {"D4", DimacsUSA, 4}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				generated = Generate(c.d, c.scale)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		})
	}
}
