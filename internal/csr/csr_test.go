package csr

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// fig2Graph reproduces the paper's Fig 2 example: the vertex index is
// [0 3 5 8 ...] and the edge array begins 10 23 50 | 54 62 | 10 0 14.
func fig2Graph() *graph.Graph {
	return graph.NewBuilder(64).
		AddEdge(0, 10).AddEdge(0, 23).AddEdge(0, 50).
		AddEdge(1, 54).AddEdge(1, 62).
		AddEdge(2, 10).AddEdge(2, 0).AddEdge(2, 14).
		MustBuild()
}

func TestFromGraphMatchesFig2(t *testing.T) {
	m := FromGraph(fig2Graph(), false)
	if got := m.Index[:4]; !reflect.DeepEqual(got, []uint64{0, 3, 5, 8}) {
		t.Errorf("index prefix = %v, want [0 3 5 8]", got)
	}
	if got := m.Neigh[:8]; !reflect.DeepEqual(got, []uint32{10, 23, 50, 54, 62, 0, 10, 14}) {
		// Within-group ascending order, so vertex 2's group is 0 10 14.
		t.Errorf("edge array = %v", got)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeAndEdges(t *testing.T) {
	m := FromGraph(fig2Graph(), false)
	if m.Degree(0) != 3 || m.Degree(1) != 2 || m.Degree(2) != 3 || m.Degree(3) != 0 {
		t.Errorf("degrees = %d %d %d %d", m.Degree(0), m.Degree(1), m.Degree(2), m.Degree(3))
	}
	if got := m.Edges(1); !reflect.DeepEqual(got, []uint32{54, 62}) {
		t.Errorf("Edges(1) = %v", got)
	}
	if m.EdgeWeights(1) != nil {
		t.Error("unweighted matrix returned weights")
	}
}

func TestCSCGroupsByDest(t *testing.T) {
	m := FromGraph(fig2Graph(), true)
	if !m.ByDest {
		t.Fatal("ByDest not set")
	}
	// Vertex 10 has in-edges from 0 and 2.
	if got := m.Edges(10); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("in-neighbors of 10 = %v, want [0 2]", got)
	}
	if m.Degree(0) != 1 { // in-edge from 2
		t.Errorf("in-degree of 0 = %d, want 1", m.Degree(0))
	}
}

func canonical(g *graph.Graph) []graph.Edge {
	es := append([]graph.Edge(nil), g.Edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
	return es
}

func TestToGraphRoundTrip(t *testing.T) {
	g := fig2Graph()
	for _, byDest := range []bool{false, true} {
		m := FromGraph(g, byDest)
		back := m.ToGraph()
		if !reflect.DeepEqual(canonical(g), canonical(back)) {
			t.Errorf("byDest=%v: round trip lost edges", byDest)
		}
	}
}

// TestTransposeDuality: the edges CSR holds, regrouped by destination, are
// the CSC built from the original list.
func TestTransposeDuality(t *testing.T) {
	g := gen.RMAT(8, 600, gen.DefaultRMAT, 5)
	if !reflect.DeepEqual(FromGraph(FromGraph(g, false).ToGraph(), true), FromGraph(g, true)) {
		t.Error("CSC of CSR's edges != direct CSC construction")
	}
}

// TestWriteFilePair: the "-push" file CSR writes and the "-pull" file CSC
// writes load as a pair grouped by source and by destination, and each file
// rebuilds both matrices byte for byte — duplicate edges, the order of their
// weights and an isolated last vertex included.
func TestWriteFilePair(t *testing.T) {
	g := graph.NewBuilder(6).
		AddWeightedEdge(3, 1, 2).AddWeightedEdge(0, 4, 1).AddWeightedEdge(3, 1, 7).
		AddWeightedEdge(2, 2, 5).AddWeightedEdge(0, 1, 3).AddWeightedEdge(3, 1, 4).
		AddWeightedEdge(4, 0, 6).
		MustBuild()
	csrM, cscM := FromGraph(g, false), FromGraph(g, true)
	base := filepath.Join(t.TempDir(), "g")
	if err := csrM.WriteFile(base + "-push"); err != nil {
		t.Fatal(err)
	}
	if err := cscM.WriteFile(base + "-pull"); err != nil {
		t.Fatal(err)
	}
	push, pull, err := graph.LoadPair(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		g     *graph.Graph
		outer func(graph.Edge) uint32
	}{
		{"push", push, func(e graph.Edge) uint32 { return e.Src }},
		{"pull", pull, func(e graph.Edge) uint32 { return e.Dst }},
	} {
		for i := 1; i < len(f.g.Edges); i++ {
			if f.outer(f.g.Edges[i-1]) > f.outer(f.g.Edges[i]) {
				t.Fatalf("%s file not grouped at edge %d: %v", f.name, i, f.g.Edges)
			}
		}
		if !reflect.DeepEqual(FromGraph(f.g, false), csrM) || !reflect.DeepEqual(FromGraph(f.g, true), cscM) {
			t.Errorf("%s file does not rebuild the matrices it was written from", f.name)
		}
	}
}

func TestWeightsFollowEdges(t *testing.T) {
	g := graph.NewBuilder(4).
		AddWeightedEdge(0, 2, 5).
		AddWeightedEdge(0, 1, 3).
		AddWeightedEdge(2, 0, 7).
		MustBuild()
	m := FromGraph(g, false)
	// Vertex 0's neighbors sorted ascending: 1 (w=3), 2 (w=5).
	if got := m.Edges(0); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("neighbors = %v", got)
	}
	if w := m.EdgeWeights(0); w[0] != 3 || w[1] != 5 {
		t.Errorf("weights = %v, want [3 5]", w)
	}
	// And through a CSC + round trip the pairing must survive.
	back := FromGraph(g, true).ToGraph()
	want := map[[2]uint32]float32{{0, 2}: 5, {0, 1}: 3, {2, 0}: 7}
	for _, e := range back.Edges {
		if want[[2]uint32{e.Src, e.Dst}] != e.Weight {
			t.Errorf("edge %v carries weight %v", e, e.Weight)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := FromGraph(fig2Graph(), false)
	m.Index[1] = 99999
	if m.Validate() == nil {
		t.Error("Validate accepted a non-covering index")
	}
	m = FromGraph(fig2Graph(), false)
	m.Neigh[0] = 1 << 30
	if m.Validate() == nil {
		t.Error("Validate accepted an out-of-range neighbor")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	m := FromGraph(g, false)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != 0 || m.Degree(4) != 0 {
		t.Error("empty graph produced edges")
	}
}

// TestRoundTripProperty: FromGraph/ToGraph preserves the multiset of edges
// for arbitrary random graphs, in both orientations.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, byDest bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		b := graph.NewBuilder(n)
		for i := rng.Intn(300); i > 0; i-- {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.MustBuild()
		m := FromGraph(g, byDest)
		if m.Validate() != nil {
			return false
		}
		return reflect.DeepEqual(canonical(g), canonical(m.ToGraph()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIndexCountsProperty: the index gaps equal the per-vertex degrees
// computed independently from the edge list.
func TestIndexCountsProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 200, seed)
		m := FromGraph(g, true)
		in := g.InDegrees()
		for v := 0; v < g.NumVertices; v++ {
			if m.Degree(uint32(v)) != in[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
