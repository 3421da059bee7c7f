package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/testgraph"
)

// assertPatchEqualsRebuild checks the splice's one contract: PatchGraph from
// the predecessor's layout is the rebuild of the merged edge list, field by
// field and byte for byte, and every array in it is structurally valid. It
// also holds the patched graph to the store's round trip: the snapshot its
// CSR writes, read back and rebuilt, is the patched graph again.
func assertPatchEqualsRebuild(t *testing.T, g *graph.Graph, ops []graph.EdgeOp) *Graph {
	t.Helper()
	prev := BuildGraph(g)
	got := PatchGraph(prev, ops)
	assertSameLayouts(t, fmt.Sprintf("rebuild after %d ops", len(ops)), got, BuildGraph(graph.ApplyEdgeOps(g, ops)))
	for name, err := range map[string]error{
		"CSR": got.CSR.Validate(), "CSC": got.CSC.Validate(),
		"VSS": got.VSS.Validate(), "VSD": got.VSD.Validate(),
	} {
		if err != nil {
			t.Fatalf("patched %s invalid: %v", name, err)
		}
	}
	if !reflect.DeepEqual(prev, BuildGraph(g)) {
		t.Fatal("PatchGraph modified its predecessor")
	}
	path := filepath.Join(t.TempDir(), "snapshot")
	if err := got.CSR.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := graph.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameLayouts(t, "the rebuild of its snapshot", got, BuildGraph(back))
	return got
}

// assertSameLayouts fails unless got and want hold byte-identical layouts.
func assertSameLayouts(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"N", got.N, want.N},
		{"Edges", got.Edges, want.Edges},
		{"Weighted", got.Weighted, want.Weighted},
		{"CSR", got.CSR, want.CSR},
		{"CSC", got.CSC, want.CSC},
		{"VSS", got.VSS, want.VSS},
		{"VSD", got.VSD, want.VSD},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differs from %s\n got %+v\nwant %+v", f.name, what, f.got, f.want)
		}
	}
}

// unweighted strips g's weights, as a graph that never had any.
func unweighted(g *graph.Graph) *graph.Graph {
	out := &graph.Graph{NumVertices: g.NumVertices, Edges: make([]graph.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		out.Edges[i] = graph.Edge{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// TestPatchGraphShapes walks the named cases on the corpus's skewed graph
// (hubs, self-loops, duplicate base edges, isolated vertices), weighted and
// not.
func TestPatchGraphShapes(t *testing.T) {
	skewed := testgraph.Skewed()
	wg, root := skewed.G, skewed.Root
	n := uint32(wg.NumVertices)
	ins := func(s, d uint32, w float32) graph.EdgeOp { return graph.EdgeOp{Src: s, Dst: d, Weight: w} }
	del := func(s, d uint32) graph.EdgeOp { return graph.EdgeOp{Delete: true, Src: s, Dst: d} }
	// Every out-edge of the root (16 of them, to 7v), for emptying its group.
	var emptyRoot []graph.EdgeOp
	for v := uint32(0); v < 16; v++ {
		emptyRoot = append(emptyRoot, del(root, 7*v))
	}
	cases := map[string][]graph.EdgeOp{
		"no ops":                     nil,
		"upsert existing duplicate":  {ins(1, 0, 9)}, // (1, 0) is in the base twice
		"upsert self-loop":           {ins(3, 3, 2)},
		"delete missing pair":        {del(n-1, n-2), del(n+40, n+41)},
		"delete duplicate":           {del(2, 1)},
		"one pair several times":     {ins(4, 9, 1), del(4, 9), ins(4, 9, 3), ins(4, 9, 5)},
		"insert then delete":         {ins(4, 9, 1), del(4, 9)},
		"empty a group":              emptyRoot,
		"16 to 17 edges":             {ins(root, 1, 1)}, // one more vector
		"16 to 15 edges":             {del(root, 0)},
		"17 back to 16 in one batch": {ins(root, 1, 1), ins(root, 2, 1), del(root, 0)},
		"into an isolated vertex":    {ins(n+1, n+2, 1), ins(n+2, n+1, 1)},
		"grow past N":                {ins(n+9, 0, 1), ins(5, n+30, 2)},
		"grow from a delete-only id": {del(n+100, 0), ins(n+3, n+3, 1)},
		"hub in and out":             {ins(5, 5, 1), del(0, 5), ins(5, n-1, 4), ins(n-1, 5, 4)},
		"first and last vertex":      {ins(0, 0, 1), ins(n+2, n+2, 1), del(0, 1)},
	}
	for name, ops := range cases {
		for _, g := range []*graph.Graph{wg, unweighted(wg)} {
			t.Run(name, func(t *testing.T) { assertPatchEqualsRebuild(t, g, ops) })
		}
	}
}

// randomOps draws a batch biased toward the interesting collisions: existing
// pairs, repeated pairs, and ids just past the vertex count.
func randomOps(rng *rand.Rand, g *graph.Graph, size int) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, 0, size)
	span := g.NumVertices + 3
	for len(ops) < size {
		op := graph.EdgeOp{
			Delete: rng.Intn(3) == 0,
			Src:    uint32(rng.Intn(span)),
			Dst:    uint32(rng.Intn(span)),
			Weight: float32(rng.Intn(8)) / 2,
		}
		switch rng.Intn(4) {
		case 0: // an edge the base already has
			if len(g.Edges) > 0 {
				e := g.Edges[rng.Intn(len(g.Edges))]
				op.Src, op.Dst = e.Src, e.Dst
			}
		case 1: // a pair this batch already named
			if len(ops) > 0 {
				p := ops[rng.Intn(len(ops))]
				op.Src, op.Dst = p.Src, p.Dst
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// TestPatchGraphProperty: random batches of every size from one op to more
// ops than edges, chained so each patched layout is the next one's
// predecessor — the way the store uses it — from every corpus graph, weighted
// and not, and from two graphs with no edge at all.
func TestPatchGraphProperty(t *testing.T) {
	bases := []*graph.Graph{{NumVertices: 0}, {NumVertices: 5, Weighted: true}}
	for _, c := range testgraph.Corpus() {
		bases = append(bases, c.WithWeights(), unweighted(c.G))
	}
	for _, base := range bases {
		rng := rand.New(rand.NewSource(15))
		g := base
		for round := 0; round < 40; round++ {
			size := 1 + rng.Intn(1<<uint(rng.Intn(12)))
			ops := randomOps(rng, g, size)
			assertPatchEqualsRebuild(t, g, ops)
			g = graph.ApplyEdgeOps(g, ops)
		}
	}
}

// TestPatchShare pins the fallback measure's two ends.
func TestPatchShare(t *testing.T) {
	skewed := testgraph.Skewed()
	g, root := skewed.G, skewed.Root
	cg := BuildGraph(g)
	if s := PatchShare(cg, []graph.EdgeOp{{Src: root, Dst: root}}); s <= 0 || s > 0.01 {
		t.Fatalf("one op on a 16-edge group: share %v, want a sliver", s)
	}
	var all []graph.EdgeOp
	for v := 0; v < g.NumVertices; v++ {
		all = append(all, graph.EdgeOp{Src: uint32(v), Dst: uint32(v)})
	}
	if s := PatchShare(cg, all); s < 1 {
		t.Fatalf("every group touched: share %v, want ≥ 1", s)
	}
}

// FuzzPatchGraph derives a small graph and a mutation batch from the fuzz
// bytes and holds PatchGraph to the same contract as the property test.
// Vertex ids are folded into a 12-vertex range so collisions — repeated
// pairs, upserts of base edges, groups crossing a vector boundary — are the
// common case rather than the rare one.
func FuzzPatchGraph(f *testing.F) {
	f.Add(true, []byte{0, 1, 2, 0, 1, 2, 3, 3, 1}, []byte{0, 0, 1, 4, 1, 3, 3, 0})
	f.Add(false, []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0}, []byte{1, 0, 1, 0, 0, 0, 6, 0, 0, 13, 2, 0})
	f.Add(true, []byte{}, []byte{0, 0, 0, 1, 1, 0, 0, 0})
	f.Add(false, []byte{7, 7, 1, 7, 7, 2}, []byte{0, 7, 7, 9})
	f.Fuzz(func(t *testing.T, weighted bool, edges, batch []byte) {
		if len(edges) > 3*256 || len(batch) > 4*256 {
			return
		}
		const n = 12
		g := &graph.Graph{NumVertices: n, Weighted: weighted}
		for i := 0; i+3 <= len(edges); i += 3 {
			e := graph.Edge{Src: uint32(edges[i]) % n, Dst: uint32(edges[i+1]) % n}
			if weighted {
				e.Weight = float32(edges[i+2])
			}
			g.Edges = append(g.Edges, e)
		}
		var ops []graph.EdgeOp
		for i := 0; i+4 <= len(batch); i += 4 {
			ops = append(ops, graph.EdgeOp{
				Delete: batch[i]&1 == 1,
				Src:    uint32(batch[i+1]) % (n + 4),
				Dst:    uint32(batch[i+2]) % (n + 4),
				Weight: float32(batch[i+3]),
			})
		}
		assertPatchEqualsRebuild(t, g, ops)
	})
}
