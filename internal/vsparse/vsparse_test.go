package vsparse

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testgraph"
	"repro/internal/vec"
)

// TestLaneLayout: a 32-bit lane is the valid bit (31) and the neighbour id in
// bits 30:0, for ids across the whole 31-bit range and every valid count; bit
// 31 of an id is dropped, not carried into the valid bit.
func TestLaneLayout(t *testing.T) {
	for _, id := range []uint32{0, 1, 7, 1 << 15, 1<<30 + 3, 1<<31 - 1, 0x5EAD_BEEF} {
		ids := [vec.Lanes]uint32{id, id ^ 1, id | 1<<31, id >> 1}
		want := [vec.Lanes]uint32{id, id ^ 1, id, id >> 1}
		for valid := 1; valid <= vec.Lanes; valid++ {
			for lane, w := range EncodeVector(ids, valid) {
				if got := w & VertexMask; got != want[lane] {
					t.Errorf("id %#x, lane %d: neighbour %#x, want %#x", id, lane, got, want[lane])
				}
				if live := w&ValidBit != 0; live != (lane < valid) {
					t.Errorf("id %#x, lane %d of %d valid: valid bit %v", id, lane, valid, live)
				}
			}
		}
	}
}

// TestEncodeValidPrefix: a vector's valid lanes are a prefix, for every live
// count; so a group's valid lanes are a prefix of its vectors, and Degree and
// Group read back the Compressed-Sparse group they encode — its degree, its
// neighbours with ValidBit set, its weights — for every vertex of every
// corpus graph, as it is and weighted, in both groupings.
func TestEncodeValidPrefix(t *testing.T) {
	for _, c := range []struct {
		ids   [vec.Lanes]uint32
		valid int
		mask  vec.Mask
	}{
		{[vec.Lanes]uint32{10, 10, 10, 10}, 1, 0b0001},
		{[vec.Lanes]uint32{10, 20, 20, 20}, 2, 0b0011},
		{[vec.Lanes]uint32{10, 20, 30, 30}, 3, 0b0111},
		{[vec.Lanes]uint32{10, 20, 30, 40}, 4, 0b1111},
	} {
		v := EncodeVector(c.ids, c.valid)
		if got := Valid(v); got != c.mask {
			t.Errorf("%d valid: Valid = %04b, want %04b", c.valid, got, c.mask)
		}
		// Masking with VertexMask must strip the metadata bits entirely.
		if n := laneIDs(v); n != vec.U32x4(c.ids) {
			t.Errorf("%d valid: lane ids = %v, want %v", c.valid, n, c.ids)
		}
	}

	for _, c := range testgraph.Corpus() {
		for _, g := range []*graph.Graph{c.WithWeights(), c.G} {
			for _, byDest := range []bool{false, true} {
				m := csr.FromGraph(g, byDest)
				a := FromCSR(m)
				for v := uint32(0); int(v) < m.N; v++ {
					lanes, weights := a.Group(v)
					if d := a.Degree(v); d != m.Degree(v) || len(lanes) != d {
						t.Fatalf("%s weighted=%v byDest=%v vertex %d: Degree %d, group of %d; want %d", c.Name, g.Weighted, byDest, v, d, len(lanes), m.Degree(v))
					}
					for i, w := range lanes {
						if w&ValidBit == 0 || w&VertexMask != m.Edges(v)[i] {
							t.Fatalf("%s byDest=%v vertex %d lane %d: %#x, want neighbour %d, valid", c.Name, byDest, v, i, w, m.Edges(v)[i])
						}
					}
					if !reflect.DeepEqual(weights, m.EdgeWeights(v)) {
						t.Fatalf("%s weighted=%v byDest=%v vertex %d: weights %v, want %v", c.Name, g.Weighted, byDest, v, weights, m.EdgeWeights(v))
					}
				}
			}
		}
	}
}

// laneIDs masks every lane of v down to its vertex id.
func laneIDs(v vec.U32x4) vec.U32x4 {
	for i := range v {
		v[i] &= VertexMask
	}
	return v
}

func fig2CSC() *csr.Matrix {
	g := graph.NewBuilder(64).
		AddEdge(0, 10).AddEdge(0, 23).AddEdge(0, 50).
		AddEdge(1, 54).AddEdge(1, 62).
		AddEdge(2, 10).AddEdge(2, 0).AddEdge(2, 14).
		MustBuild()
	return csr.FromGraph(g, true)
}

func TestFromCSRStructure(t *testing.T) {
	a := FromCSR(fig2CSC())
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.ValidEdges != 8 {
		t.Errorf("ValidEdges = %d, want 8", a.ValidEdges)
	}
	// 7 destinations each with in-degree <= 2 -> one vector each.
	if a.NumVectors() != 7 {
		t.Errorf("NumVectors = %d, want 7", a.NumVectors())
	}
	// Index is the only record of ownership: the seven destinations own one
	// vector each, in id order, and every other vertex owns none.
	var owners []int
	for v := 0; v < a.N; v++ {
		switch k := a.Index[v+1] - a.Index[v]; k {
		case 0:
		case 1:
			if a.Index[v] != len(owners) {
				t.Errorf("vertex %d owns vector %d, want %d", v, a.Index[v], len(owners))
			}
			owners = append(owners, v)
		default:
			t.Errorf("vertex %d owns %d vectors, want at most 1", v, k)
		}
	}
	if want := []int{0, 10, 14, 23, 50, 54, 62}; !reflect.DeepEqual(owners, want) {
		t.Errorf("owners = %v, want %v", owners, want)
	}
	// Vertex 10's vector holds its two in-neighbours, 0 and 2, in two valid
	// lanes.
	v := a.Vector(a.Index[10])
	if Valid(v).Count() != 2 || v[0]&VertexMask != 0 || v[1]&VertexMask != 2 {
		t.Errorf("vertex 10's vector = %#x, want sources 0 and 2 valid", v)
	}
}

func TestPaddingRepeatsLastNeighbor(t *testing.T) {
	// Degree-5 vertex: two vectors, second has 1 valid lane and 3 padding
	// lanes that must replicate the last neighbor (in-range, never faulting).
	b := graph.NewBuilder(16)
	for _, s := range []uint32{1, 2, 3, 4, 5} {
		b.AddEdge(s, 0)
	}
	a := FromCSR(csr.FromGraph(b.MustBuild(), true))
	if a.Index[1]-a.Index[0] != 2 {
		t.Fatalf("vertex 0 owns %d vectors, want 2", a.Index[1]-a.Index[0])
	}
	second := a.Vector(1)
	if Valid(second) != vec.Mask(0b0001) {
		t.Fatalf("second vector valid mask = %04b", Valid(second))
	}
	n := laneIDs(second)
	for lane := 1; lane < vec.Lanes; lane++ {
		if n[lane] != n[0] {
			t.Errorf("padding lane %d = %d, want %d", lane, n[lane], n[0])
		}
	}
}

// assertDeadLanesInRange checks the invariant the kernels' branch-free
// frontier test rests on: a padding lane is never dereferenced by a
// predicated gather, but it is by an unpredicated one, so it must hold an id
// below N like any live lane.
func assertDeadLanesInRange(t *testing.T, a *Array) {
	t.Helper()
	dead := 0
	for i := 0; i < a.NumVectors(); i++ {
		v := a.Vector(i)
		mask := Valid(v)
		for lane := 0; lane < vec.Lanes; lane++ {
			if mask.Bit(lane) {
				continue
			}
			dead++
			if id := v[lane] & VertexMask; uint64(id) >= uint64(a.N) {
				t.Fatalf("vector %d dead lane %d holds id %d, N = %d", i, lane, id, a.N)
			}
		}
	}
	if dead == 0 {
		t.Fatal("array has no padding lanes; the check saw nothing")
	}
}

// TestDeadLanesInRange: after FromCSR and after Patch — whose copied runs
// were encoded against a smaller N, and whose touched groups lose their last
// neighbour, gain one past the old N, or empty out — in both groupings.
func TestDeadLanesInRange(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(7, 900, gen.RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}, 5), 6)
	n := uint32(g.NumVertices)
	var ops []graph.EdgeOp
	for i := 0; i < 60; i++ {
		e := g.Edges[i*11]
		ops = append(ops, graph.EdgeOp{Delete: true, Src: e.Src, Dst: e.Dst})
		ops = append(ops, graph.EdgeOp{Src: (e.Dst + uint32(i)) % n, Dst: e.Src, Weight: 1})
	}
	ops = append(ops,
		graph.EdgeOp{Src: n + 2, Dst: 3, Weight: 1}, // grows N; id n+2 lands in an old group
		graph.EdgeOp{Src: 3, Dst: n + 2, Weight: 1},
		graph.EdgeOp{Src: n - 1, Dst: 0, Weight: 1})
	edits := graph.ReduceEdgeOps(ops, true)
	for _, byDest := range []bool{false, true} {
		if byDest {
			sort.Slice(edits, func(i, j int) bool {
				if edits[i].Dst != edits[j].Dst {
					return edits[i].Dst < edits[j].Dst
				}
				return edits[i].Src < edits[j].Src
			})
		}
		a := FromCSR(csr.FromGraph(g, byDest))
		assertDeadLanesInRange(t, a)
		pa := a.Patch(int(n)+3, edits)
		if !reflect.DeepEqual(pa, FromCSR(csr.FromGraph(graph.ApplyEdgeOps(g, ops), byDest))) {
			t.Fatalf("byDest=%v: Patch differs from FromCSR", byDest)
		}
		if err := pa.Validate(); err != nil {
			t.Fatal(err)
		}
		assertDeadLanesInRange(t, pa)
	}

	// Validate rejects a padding lane that points past N.
	a := FromCSR(fig2CSC())
	for i := 0; i < a.NumVectors(); i++ {
		if v := a.Vector(i); !Valid(v).Bit(vec.Lanes - 1) {
			a.Slabs[0].Words[i*vec.Lanes+vec.Lanes-1] |= uint32(a.N)
			break
		}
	}
	if a.Validate() == nil {
		t.Error("Validate accepted an out-of-range padding lane")
	}
}

func TestRoundTripCSR(t *testing.T) {
	for _, byDest := range []bool{false, true} {
		g := gen.RMAT(8, 700, gen.DefaultRMAT, 3)
		m := csr.FromGraph(g, byDest)
		back := toCSR(FromCSR(m))
		if !reflect.DeepEqual(m.Index, back.Index) || !reflect.DeepEqual(m.Neigh, back.Neigh) {
			t.Errorf("byDest=%v: Vector-Sparse round trip corrupted the matrix", byDest)
		}
	}
}

func TestRoundTripWeighted(t *testing.T) {
	g := gen.AddUniformWeights(gen.ErdosRenyi(30, 150, 2), 7)
	m := csr.FromGraph(g, true)
	a := FromCSR(m)
	if !a.Weighted {
		t.Fatal("weights dropped")
	}
	back := toCSR(a)
	if !reflect.DeepEqual(m.Weights, back.Weights) {
		t.Error("weights corrupted in round trip")
	}
	// Padding weight lanes are zero.
	for i := 0; i < a.NumVectors(); i++ {
		mask := Valid(a.Vector(i))
		w := weightVector(a, i)
		for lane := 0; lane < vec.Lanes; lane++ {
			if !mask.Bit(lane) && w[lane] != 0 {
				t.Fatalf("vector %d padding lane %d weight = %v", i, lane, w[lane])
			}
		}
	}
}

// TestValidateDetectsCorruption: each corruption of a valid array, alone,
// makes Validate fail.
func TestValidateDetectsCorruption(t *testing.T) {
	plain := func() *Array { return FromCSR(fig2CSC()) }
	weighted := func() *Array {
		return FromCSR(csr.FromGraph(gen.AddUniformWeights(gen.ErdosRenyi(30, 150, 2), 7), true))
	}
	multi := func() *Array { return FromCSR(csr.FromGraph(gen.RMAT(10, 4000, gen.DefaultRMAT, 4), true)) }
	for _, c := range []struct {
		name    string
		build   func() *Array
		corrupt func(a *Array)
	}{
		{"id N in a valid lane", plain, func(a *Array) { a.Slabs[0].Words[0] = ValidBit | uint32(a.N) }},
		// Every fig 2 vector has a padding lane 3. Bit 31 makes it read as
		// valid; bit 30 puts its id past N.
		{"bit 31 of a padding lane", plain, func(a *Array) { a.Slabs[0].Words[vec.Lanes-1] |= 1 << 31 }},
		{"bit 30 of a padding lane", plain, func(a *Array) { a.Slabs[0].Words[vec.Lanes-1] |= 1 << 30 }},
		{"wrong ValidEdges", plain, func(a *Array) { a.ValidEdges++ }},
		// Vector 0 is left to no vertex; ValidEdges drops its live lanes, so
		// only the start of Index is wrong.
		{"Index[0] != 0", plain, func(a *Array) {
			a.ValidEdges -= Valid(a.Vector(0)).Count()
			a.Index[0] = 1
		}},
		{"weights one vector short", weighted, func(a *Array) { a.Slabs[0].Weights = a.Slabs[0].Weights[:len(a.Slabs[0].Weights)-vec.Lanes] }},
		{"weights on an unweighted array", plain, func(a *Array) { a.Slabs[0].Weights = make([]float32, len(a.Slabs[0].Words)) }},
		{"a slab's Base off its first vertex", multi, func(a *Array) { a.Slabs[1].Base++ }},
		{"a slab one vector short", multi, func(a *Array) { a.Slabs[1].Words = a.Slabs[1].Words[:len(a.Slabs[1].Words)-vec.Lanes] }},
		{"a slab missing", multi, func(a *Array) { a.Slabs = a.Slabs[:len(a.Slabs)-1] }},
	} {
		a := c.build()
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: the array before corruption: %v", c.name, err)
		}
		c.corrupt(a)
		if a.Validate() == nil {
			t.Errorf("Validate accepted %s", c.name)
		}
	}
}

func TestPackingEfficiencyExamples(t *testing.T) {
	// A degree-7 vertex occupies two vectors with 7 valid of 8 lanes (the
	// paper's example in §4).
	b := graph.NewBuilder(8)
	for s := uint32(1); s <= 7; s++ {
		b.AddEdge(s, 0)
	}
	a := FromCSR(csr.FromGraph(b.MustBuild(), true))
	if got := a.PackingEfficiency(); got != 7.0/8.0 {
		t.Errorf("PackingEfficiency = %v, want 7/8", got)
	}
}

// TestMemoryBytes pins the footprint of one corpus graph's pull array: 4
// bytes a lane, 4 a weight, 8 an Index entry.
func TestMemoryBytes(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		if c.Name != "hub" {
			continue
		}
		a := FromCSR(csr.FromGraph(c.G, true))
		if a.N != 48 || a.NumVectors() != 53 || a.Weighted || len(a.Slabs) != 1 {
			t.Fatalf("hub's pull array: N %d, %d vectors, weighted %v, %d slabs; want 48, 53, false, 1", a.N, a.NumVectors(), a.Weighted, len(a.Slabs))
		}
		slab := int64(unsafe.Sizeof(Slab{}))
		if got, want := a.MemoryBytes(), int64(53*vec.Lanes*4+49*8)+slab; got != want {
			t.Errorf("MemoryBytes = %d, want %d", got, want)
		}
		w := FromCSR(csr.FromGraph(c.WithWeights(), true))
		if got, want := w.MemoryBytes(), int64(53*vec.Lanes*(4+4)+49*8)+slab; got != want {
			t.Errorf("weighted MemoryBytes = %d, want %d", got, want)
		}
		return
	}
	t.Fatal("the corpus has no hub graph")
}

func TestPackingEfficiencyForLanes(t *testing.T) {
	deg := []int{7} // 7/8 at 4 lanes, 7/8 at 8 lanes... no: 7 of 8 at 8 lanes too
	if got := PackingEfficiencyForLanes(deg, 4); got != 7.0/8.0 {
		t.Errorf("4 lanes: %v, want 7/8", got)
	}
	if got := PackingEfficiencyForLanes(deg, 8); got != 7.0/8.0 {
		t.Errorf("8 lanes: %v, want 7/8", got)
	}
	if got := PackingEfficiencyForLanes(deg, 16); got != 7.0/16.0 {
		t.Errorf("16 lanes: %v, want 7/16", got)
	}
	// Degree-0 vertices contribute nothing.
	if got := PackingEfficiencyForLanes([]int{0, 0, 4}, 4); got != 1.0 {
		t.Errorf("with zeros: %v, want 1", got)
	}
	if got := PackingEfficiencyForLanes(nil, 4); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

func TestPackingEfficiencyMatchesAnalytic(t *testing.T) {
	g := gen.RMAT(9, 2000, gen.DefaultRMAT, 11)
	m := csr.FromGraph(g, true)
	a := FromCSR(m)
	analytic := PackingEfficiencyForLanes(g.InDegrees(), vec.Lanes)
	if got := a.PackingEfficiency(); got != analytic {
		t.Errorf("encoded efficiency %v != analytic %v", got, analytic)
	}
}

// TestPatchSharesUntouchedSlabs: on arrays of several slabs — the last one
// full, and the last one partial, so that it grows untouched — in both
// groupings, plain and weighted, Patch equals FromCSR of the merged graph;
// every slab no edit names is the predecessor's by pointer, every slab one
// names is fresh memory, and slabs past the old N (the merged graph grows by
// over a slab) are empty unless an edit names a vertex there.
func TestPatchSharesUntouchedSlabs(t *testing.T) {
	for _, base := range []*graph.Graph{gen.RMAT(10, 6000, gen.DefaultRMAT, 4), gen.ErdosRenyi(700, 5000, 4)} {
		testPatchShares(t, base)
	}
}

func testPatchShares(t *testing.T, base *graph.Graph) {
	n := uint32(base.NumVertices)
	ops := []graph.EdgeOp{
		{Src: 300, Dst: 301, Weight: 2},                                // slab 1 both ways
		{Delete: true, Src: base.Edges[7].Src, Dst: base.Edges[7].Dst}, // an existing edge
		{Src: 5, Dst: n + SlabVertices + 7, Weight: 3},                 // grows N past a slab
	}
	for _, g := range []*graph.Graph{base, gen.AddUniformWeights(base, 5)} {
		for _, byDest := range []bool{false, true} {
			edits := graph.ReduceEdgeOps(ops, g.Weighted)
			a := FromCSR(csr.FromGraph(g, byDest))
			if byDest {
				sort.Slice(edits, func(i, j int) bool {
					if edits[i].Dst != edits[j].Dst {
						return edits[i].Dst < edits[j].Dst
					}
					return edits[i].Src < edits[j].Src
				})
			}
			touched := map[int]bool{}
			for _, e := range edits {
				top, _ := a.ends(e)
				touched[int(top)>>SlabShift] = true
			}
			merged := graph.ApplyEdgeOps(g, ops)
			pa := a.Patch(merged.NumVertices, edits)
			if !reflect.DeepEqual(pa, FromCSR(csr.FromGraph(merged, byDest))) {
				t.Fatalf("weighted=%v byDest=%v: Patch differs from FromCSR", g.Weighted, byDest)
			}
			if err := pa.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(a.Slabs) < 3 || len(pa.Slabs) < len(a.Slabs)+1 {
				t.Fatalf("%d slabs before, %d after; want 3 or more, and more after", len(a.Slabs), len(pa.Slabs))
			}
			for s := range pa.Slabs {
				switch {
				case s >= len(a.Slabs):
					if len(pa.Slabs[s].Words) != 0 && !touched[s] {
						t.Errorf("slab %d past the old N holds %d words with no edit", s, len(pa.Slabs[s].Words))
					}
				case touched[s] == sameWords(a.Slabs[s], pa.Slabs[s]):
					t.Errorf("weighted=%v byDest=%v slab %d: touched %v, shared %v", g.Weighted, byDest, s, touched[s], !touched[s])
				}
			}
		}
	}
}

// sameWords reports whether two slabs are one slab's memory.
func sameWords(x, y Slab) bool {
	return unsafe.SliceData(x.Words) == unsafe.SliceData(y.Words) &&
		unsafe.SliceData(x.Weights) == unsafe.SliceData(y.Weights)
}

// Property: round trip through Vector-Sparse preserves any random CSC, and
// packing efficiency stays within (0.25, 1] for 4 lanes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, byDest bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		b := graph.NewBuilder(n)
		ne := rng.Intn(400)
		for i := 0; i < ne; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		m := csr.FromGraph(b.MustBuild(), byDest)
		a := FromCSR(m)
		if a.Validate() != nil {
			return false
		}
		if ne > 0 {
			eff := a.PackingEfficiency()
			if eff <= 0.25-1e-12 || eff > 1 {
				return false
			}
		}
		back := toCSR(a)
		return reflect.DeepEqual(m.Index, back.Index) && reflect.DeepEqual(m.Neigh, back.Neigh)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: efficiency never increases with wider lanes (Fig 9's monotone
// drop with vector width).
func TestEfficiencyMonotoneInLanesProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.RMAT(7, 300, gen.DefaultRMAT, seed)
		deg := g.InDegrees()
		e4 := PackingEfficiencyForLanes(deg, 4)
		e8 := PackingEfficiencyForLanes(deg, 8)
		e16 := PackingEfficiencyForLanes(deg, 16)
		return e4 >= e8 && e8 >= e16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// toCSR reconstructs the Compressed-Sparse matrix a encodes, dropping
// padding lanes: the round-trip tests' inverse of FromCSR.
func toCSR(a *Array) *csr.Matrix {
	m := &csr.Matrix{N: a.N}
	m.Index = make([]uint64, a.N+1)
	m.Neigh = make([]uint32, 0, a.ValidEdges)
	if a.Weighted {
		m.Weights = make([]float32, 0, a.ValidEdges)
	}
	for v := 0; v < a.N; v++ {
		m.Index[v] = uint64(len(m.Neigh))
		words, weights := a.Vectors(uint32(v))
		for i := 0; i < len(words); i += vec.Lanes {
			vv := vec.U32x4(words[i:])
			mask := Valid(vv)
			for lane := 0; lane < vec.Lanes; lane++ {
				if mask.Bit(lane) {
					m.Neigh = append(m.Neigh, vv[lane]&VertexMask)
					if a.Weighted {
						m.Weights = append(m.Weights, weights[i+lane])
					}
				}
			}
		}
	}
	m.Index[a.N] = uint64(len(m.Neigh))
	return m
}

// weightVector loads the four lane weights of vector i of a; zero lanes when
// the array is unweighted.
func weightVector(a *Array, i int) [vec.Lanes]float32 {
	var w [vec.Lanes]float32
	for _, s := range a.Slabs {
		if k := i - s.Base; a.Weighted && k >= 0 && k < len(s.Words)/vec.Lanes {
			copy(w[:], s.Weights[k*vec.Lanes:(k+1)*vec.Lanes])
		}
	}
	return w
}
