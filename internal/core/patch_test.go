package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
	"repro/internal/vsparse"
)

// assertPatchEqualsRebuild checks the splice's one contract: PatchGraph from
// the predecessor's layout, prev, whose layouts are BuildGraph(g)'s, is the
// rebuild of the merged edge list, field by field and byte for byte, and
// every array in it is structurally valid. The memos prev has built are
// inherited and equal the rebuild's own (assertInherits). It also holds the
// patched graph to the store's round trip: the snapshot its VSS writes, read
// back and rebuilt, is the patched graph again; and every edge list it
// streams is the merged list's Compressed-Sparse one
// (assertWritesCSROrder). The streams are compared in memory; with a
// directory they also go through the files, and the snapshot is read back
// from its file.
func assertPatchEqualsRebuild(t *testing.T, prev *Graph, g *graph.Graph, ops []graph.EdgeOp, dir string) *Graph {
	t.Helper()
	before := loadedMemos(prev).clone()
	got := PatchGraph(prev, ops)
	merged := graph.ApplyEdgeOps(g, ops)
	rebuilt := BuildGraph(merged)
	assertSameLayouts(t, fmt.Sprintf("rebuild after %d ops", len(ops)), got, rebuilt)
	assertInherits(t, prev, got, rebuilt)
	for name, err := range map[string]error{"VSS": got.VSS.Validate(), "VSD": got.VSD.Validate()} {
		if err != nil {
			t.Fatalf("patched %s invalid: %v", name, err)
		}
	}
	assertSameLayouts(t, "its own layouts before PatchGraph (PatchGraph modified its predecessor)", prev, BuildGraph(g))
	if !reflect.DeepEqual(loadedMemos(prev), before) {
		t.Fatal("PatchGraph modified its predecessor's memos")
	}
	snapshot := assertWritesCSROrder(t, got, merged, dir)
	back, err := graph.ReadBinary(bytes.NewReader(snapshot))
	if dir != "" {
		back, err = graph.ReadFile(filepath.Join(dir, "snapshot"))
	}
	if err != nil {
		t.Fatal(err)
	}
	assertSameLayouts(t, "the rebuild of its snapshot", got, BuildGraph(back))
	return got
}

// memos is what a Graph's per-vertex memos hold; nil for one not built.
type memos struct {
	Scales [2]*apps.RankScale // plain, weighted
	OutDeg []uint32
}

// The memos a test builds on a version, as a bit set.
const (
	plainScale = 1 << iota
	weightedScale
	outDegs
	allMemos = plainScale | weightedScale | outDegs
)

// memoized builds the memos named by which on cg and returns cg.
func memoized(cg *Graph, which int) *Graph {
	for i, bit := range []int{plainScale, weightedScale} {
		if which&bit != 0 {
			cg.RankScale(i == 1)
		}
	}
	if which&outDegs != 0 {
		cg.outDegrees()
	}
	return cg
}

// loadedMemos returns the memos cg has published, building none.
func loadedMemos(cg *Graph) memos {
	m := memos{Scales: [2]*apps.RankScale{cg.scales[0].Load(), cg.scales[1].Load()}}
	if d := cg.outDeg.Load(); d != nil {
		m.OutDeg = *d
	}
	return m
}

// built returns the bit set of the memos in m.
func (m memos) built() int {
	which := 0
	for i, bit := range []int{plainScale, weightedScale} {
		if m.Scales[i] != nil {
			which |= bit
		}
	}
	if m.OutDeg != nil {
		which |= outDegs
	}
	return which
}

// clone deep-copies m, so a later write into one of its arrays shows.
func (m memos) clone() memos {
	c := memos{OutDeg: slices.Clone(m.OutDeg)}
	for i, s := range m.Scales {
		if s != nil {
			c.Scales[i] = &apps.RankScale{Inv: slices.Clone(s.Inv), Dangling: slices.Clone(s.Dangling)}
		}
	}
	return c
}

// assertInherits: next, patched from prev, has published exactly the memos
// prev had built when it was patched — read without asking next for one —
// and each equals the memo that rebuilt, next's layouts built from its edge
// list with no memo yet, computes.
func assertInherits(t *testing.T, prev, next, rebuilt *Graph) {
	t.Helper()
	got := loadedMemos(next)
	if which := loadedMemos(prev).built(); got.built() != which {
		t.Fatalf("successor holds memos %03b, its predecessor had built %03b", got.built(), which)
	}
	if want := loadedMemos(memoized(rebuilt, got.built())); !reflect.DeepEqual(got, want) {
		t.Fatalf("inherited memos differ from a fresh build's\n got %+v\nwant %+v", got, want)
	}
}

// edgeList is one writer of a graph file: the header its WriteFile gives
// graph.WriteEdges, its edges in file order, and the WriteFile itself.
type edgeList struct {
	n, numEdges int
	weighted    bool
	edges       []graph.Edge
	writeFile   func(string) error
}

func arrayList(a *vsparse.Array) edgeList {
	return edgeList{a.N, a.ValidEdges, a.Weighted, a.ToGraph().Edges, a.WriteFile}
}

// matrixList reads m's edges out of its groups, in (src, dst) orientation
// and in m's order.
func matrixList(m *csr.Matrix) edgeList {
	edges := make([]graph.Edge, 0, m.NumEdges())
	for v := range uint32(m.N) {
		ws := m.EdgeWeights(v)
		for i, u := range m.Edges(v) {
			e := graph.Edge{Src: v, Dst: u}
			if m.ByDest {
				e.Src, e.Dst = u, v
			}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	return edgeList{m.N, m.NumEdges(), m.Weights != nil, edges, m.WriteFile}
}

func graphList(g *graph.Graph) edgeList {
	return edgeList{g.NumVertices, len(g.Edges), g.Weighted, g.Edges, g.WriteFile}
}

// stream returns the file l's WriteFile writes, streamed in memory through the
// one writer every WriteFile shares. With a directory, WriteFile also writes
// it there under name, and the file must hold the same bytes.
func (l edgeList) stream(t *testing.T, dir, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Grow(32 + 12*len(l.edges))
	if err := graph.WriteEdges(&buf, l.n, l.numEdges, l.weighted, slices.Values(l.edges)); err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		path := filepath.Join(dir, name)
		if err := l.writeFile(path); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, buf.Bytes()) {
			t.Fatalf("%s: the file (%d bytes, %v) differs from the stream's %d bytes", name, len(b), err, buf.Len())
		}
	}
	return buf.Bytes()
}

// assertWritesCSROrder holds every edge list cg streams out to the file a
// transient Compressed-Sparse matrix of g, its edge list, writes, byte for
// byte: the store's snapshot file and the edge list VSS.ToGraph decodes
// (both out of VSS), and Save's "-push"/"-pull" pair (VSS, VSD). It returns
// the snapshot's bytes; with a directory, the snapshot file is there too.
func assertWritesCSROrder(t *testing.T, cg *Graph, g *graph.Graph, dir string) []byte {
	t.Helper()
	push := matrixList(csr.FromGraph(g, false)).stream(t, dir, "csr")
	snapshot := arrayList(cg.VSS).stream(t, dir, "snapshot")
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"snapshot and -push (VSS)", snapshot, push},
		{"-pull (VSD)", arrayList(cg.VSD).stream(t, dir, "pull"), matrixList(csr.FromGraph(g, true)).stream(t, dir, "csc")},
		{"edge list (VSS.ToGraph)", graphList(cg.VSS.ToGraph()).stream(t, dir, "decoded"), push},
	} {
		if !bytes.Equal(c.got, c.want) {
			t.Fatalf("%s: %d bytes differ from the Compressed-Sparse writer's %d", c.name, len(c.got), len(c.want))
		}
	}
	return snapshot
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
			t.Run(name, func(t *testing.T) {
				// One case, weighted and growing the header's N, goes
				// through the files.
				dir := ""
				if name == "grow past N" && g == wg {
					dir = t.TempDir()
				}
				assertPatchEqualsRebuild(t, memoized(BuildGraph(g), allMemos), g, ops, dir)
			})
		}
	}

	// A source with one out-edge, and one with none.
	outs := map[uint32][]uint32{}
	for _, e := range wg.Edges {
		if !slices.Contains(outs[e.Src], e.Dst) {
			outs[e.Src] = append(outs[e.Src], e.Dst)
		}
	}
	leaf, sink := n, n
	for v := range n {
		if len(outs[v]) == 1 && leaf == n {
			leaf = v
		}
		if len(outs[v]) == 0 {
			sink = v
		}
	}
	if leaf == n || sink == n {
		t.Fatalf("skewed graph has no one-edge source (%d) or no sink (%d)", leaf, sink)
	}
	// Cases that move vertex v into or out of the dangling lists, each
	// checked to do so: dangling says whether v is in the plain list
	// afterwards, and in the weighted list of the weighted graph.
	for _, c := range []struct {
		name     string
		ops      []graph.EdgeOp
		v        uint32
		dangling [2]bool
	}{
		{"touched source past N", []graph.EdgeOp{ins(n+4, 0, 1), ins(n+1, n+4, 1), del(n+9, 0)}, n + 4, [2]bool{false, false}},
		{"vertex past N with no out-edge", []graph.EdgeOp{ins(n+4, 0, 1), ins(n+1, n+4, 1)}, n + 3, [2]bool{true, true}},
		{"delete leaves a source dangling", []graph.EdgeOp{del(leaf, outs[leaf][0])}, leaf, [2]bool{true, true}},
		{"insert un-dangles a source", []graph.EdgeOp{ins(sink, 0, 1)}, sink, [2]bool{false, false}},
		{"weights sum to 0", []graph.EdgeOp{ins(sink, 0, 2), ins(sink, 3, -2)}, sink, [2]bool{false, true}},
		{"zero weights", []graph.EdgeOp{ins(sink, 0, 0)}, sink, [2]bool{false, true}},
	} {
		for _, g := range []*graph.Graph{wg, unweighted(wg)} {
			t.Run(c.name, func(t *testing.T) {
				got := assertPatchEqualsRebuild(t, memoized(BuildGraph(g), allMemos), g, c.ops, "")
				for i, want := range c.dangling {
					if (i == 0 || g.Weighted) && slices.Contains(got.RankScale(i == 1).Dangling, c.v) != want {
						t.Fatalf("weighted=%v: vertex %d dangling is %v, want %v", i == 1, c.v, !want, want)
					}
				}
			})
		}
	}

	for _, g := range []*graph.Graph{wg, unweighted(wg)} {
		// Each subset of the memos built on the predecessor is the subset
		// its successor inherits.
		t.Run("some memos built", func(t *testing.T) {
			for which := range allMemos + 1 {
				assertPatchEqualsRebuild(t, memoized(BuildGraph(g), which), g, cases["hub in and out"], "")
			}
		})
		// A successor of a successor, the way the store chains versions:
		// only the first predecessor ever builds a memo.
		t.Run("chained", func(t *testing.T) {
			rng := rand.New(rand.NewSource(54))
			cg := memoized(BuildGraph(g), allMemos)
			for range 6 {
				ops := randomOps(rng, g, 1+rng.Intn(64))
				cg = assertPatchEqualsRebuild(t, cg, g, ops, "")
				g = graph.ApplyEdgeOps(g, ops)
			}
		})
	}
}

// TestPatchGraphRacesFirstMemo: PatchGraph runs while another goroutine is
// inside its predecessor's first RankScale and outDegrees. The successor
// inherits each memo published before PatchGraph loads it and builds the
// others lazily, bit-identical to a fresh build's either way.
func TestPatchGraphRacesFirstMemo(t *testing.T) {
	base := testgraph.Skewed().G
	rng := rand.New(rand.NewSource(54))
	for _, g := range []*graph.Graph{base, unweighted(base)} {
		for range 8 {
			ops := randomOps(rng, g, 1+rng.Intn(16))
			want := loadedMemos(memoized(BuildGraph(graph.ApplyEdgeOps(g, ops)), allMemos))
			prev := BuildGraph(g)
			done := make(chan struct{})
			go func() {
				defer close(done)
				memoized(prev, allMemos)
			}()
			next := PatchGraph(prev, ops)
			inherited := loadedMemos(next).built()
			<-done
			if got := loadedMemos(memoized(next, allMemos)); !reflect.DeepEqual(got, want) {
				t.Fatalf("memos %03b inherited: successor's memos differ from a fresh build's\n got %+v\nwant %+v", inherited, got, want)
			}
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
// and not, and from two graphs with no edge at all; and one batch on T×1,
// weighted and not, the skewed analog at the size CI times.
func TestPatchGraphProperty(t *testing.T) {
	bases := []*graph.Graph{{NumVertices: 0}, {NumVertices: 5, Weighted: true}}
	for _, c := range testgraph.Corpus() {
		bases = append(bases, c.WithWeights(), unweighted(c.G))
	}
	twitter := analogs1[gen.Twitter]()
	bases = append(bases, gen.AddUniformWeights(twitter, 3), twitter)
	for i, base := range bases {
		rounds := 40
		if i >= len(bases)-2 {
			rounds = 1
		}
		rng := rand.New(rand.NewSource(15))
		g := base
		for round := 0; round < rounds; round++ {
			size := 1 + rng.Intn(1<<uint(rng.Intn(12)))
			ops := randomOps(rng, g, size)
			// The weighted T×1 batch goes through the files.
			dir := ""
			if i == len(bases)-2 {
				dir = t.TempDir()
			}
			assertPatchEqualsRebuild(t, memoized(BuildGraph(g), allMemos), g, ops, dir)
			g = graph.ApplyEdgeOps(g, ops)
		}
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
		assertPatchEqualsRebuild(t, memoized(BuildGraph(g), allMemos), g, ops, t.TempDir())
	})
}
