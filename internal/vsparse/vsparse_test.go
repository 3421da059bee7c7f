package vsparse

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/vec"
)

func TestEncodeDecodeTop(t *testing.T) {
	for _, top := range []uint64{0, 1, 7, 1 << 15, 1<<30 + 3, (1 << 48) - 1, 0xDEAD_BEEF_CAFE} {
		v := EncodeVector(top, [vec.Lanes]uint64{1, 2, 3, 4}, 4)
		if got := DecodeTop(v); got != top {
			t.Errorf("DecodeTop(EncodeVector(%#x)) = %#x", top, got)
		}
	}
}

func TestEncodeValidPrefix(t *testing.T) {
	v := EncodeVector(5, [vec.Lanes]uint64{10, 20, 30, 30}, 3)
	if got := Valid(v); got != vec.Mask(0b0111) {
		t.Errorf("Valid = %04b, want 0111", got)
	}
	n := Neighbors(v)
	if n[0] != 10 || n[1] != 20 || n[2] != 30 {
		t.Errorf("Neighbors = %v", n)
	}
	// Neighbor extraction must strip the metadata bits entirely.
	for i := 0; i < vec.Lanes; i++ {
		if n[i] > VertexMask {
			t.Errorf("lane %d leaked metadata: %#x", i, n[i])
		}
	}
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
	if !a.ByDest {
		t.Error("grouping flag lost")
	}
	if a.ValidEdges != 8 {
		t.Errorf("ValidEdges = %d, want 8", a.ValidEdges)
	}
	// 7 destinations each with in-degree <= 2 -> one vector each.
	if a.NumVectors() != 7 {
		t.Errorf("NumVectors = %d, want 7", a.NumVectors())
	}
	// Vertex 10 (in-degree 2, from 0 and 2) occupies exactly one vector with
	// two valid lanes.
	lo, hi := a.Index[10], a.Index[11]
	if hi-lo != 1 {
		t.Fatalf("vertex 10 owns %d vectors, want 1", hi-lo)
	}
	v := a.Vector(lo)
	if DecodeTop(v) != 10 {
		t.Errorf("embedded top id = %d, want 10", DecodeTop(v))
	}
	if Valid(v).Count() != 2 {
		t.Errorf("valid lanes = %d, want 2", Valid(v).Count())
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
	n := Neighbors(second)
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
			if id := v[lane] & VertexMask; id >= uint64(a.N) {
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
		m := csr.FromGraph(g, byDest)
		a := FromCSR(m)
		assertDeadLanesInRange(t, a)
		pm, touched := m.Patch(int(n)+3, edits)
		pa := a.Patch(pm, touched)
		if !reflect.DeepEqual(pa, FromCSR(pm)) {
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
			a.Words[i*vec.Lanes+vec.Lanes-1] |= uint64(a.N)
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
		back := FromCSR(m).ToCSR()
		if !reflect.DeepEqual(m.Index, back.Index) || !reflect.DeepEqual(m.Neigh, back.Neigh) {
			t.Errorf("byDest=%v: Vector-Sparse round trip corrupted the matrix", byDest)
		}
	}
}

func TestRoundTripWeighted(t *testing.T) {
	g := gen.AddUniformWeights(gen.ErdosRenyi(30, 150, 2), 7)
	m := csr.FromGraph(g, true)
	a := FromCSR(m)
	if a.Weights == nil {
		t.Fatal("weights dropped")
	}
	back := a.ToCSR()
	if !reflect.DeepEqual(m.Weights, back.Weights) {
		t.Error("weights corrupted in round trip")
	}
	// Padding weight lanes are zero.
	for i := 0; i < a.NumVectors(); i++ {
		mask := Valid(a.Vector(i))
		w := a.WeightVector(i)
		for lane := 0; lane < vec.Lanes; lane++ {
			if !mask.Bit(lane) && w[lane] != 0 {
				t.Fatalf("vector %d padding lane %d weight = %v", i, lane, w[lane])
			}
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	a := FromCSR(fig2CSC())
	a.Words[0] ^= 1 << pieceShift // corrupt embedded top id
	if a.Validate() == nil {
		t.Error("Validate accepted corrupted top-level id")
	}
	a = FromCSR(fig2CSC())
	a.ValidEdges++
	if a.Validate() == nil {
		t.Error("Validate accepted wrong ValidEdges")
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
		back := a.ToCSR()
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
