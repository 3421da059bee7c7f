package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func tinyGraph(t *testing.T) *Graph {
	t.Helper()
	// The Compressed-Sparse example of the paper's Fig 2: vertex 0 has
	// neighbors {10,23,50}, vertex 1 has {54,62}, vertex 2 has {10,0,14}.
	b := NewBuilder(64)
	b.AddEdge(0, 10).AddEdge(0, 23).AddEdge(0, 50)
	b.AddEdge(1, 54).AddEdge(1, 62)
	b.AddEdge(2, 10).AddEdge(2, 0).AddEdge(2, 14)
	return b.MustBuild()
}

func TestBuilderCounts(t *testing.T) {
	g := tinyGraph(t)
	if g.NumVertices != 64 {
		t.Errorf("NumVertices = %d, want 64", g.NumVertices)
	}
	if g.NumEdges() != 8 {
		t.Errorf("NumEdges = %d, want 8", g.NumEdges())
	}
	if g.Weighted {
		t.Error("graph should be unweighted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	_, err := NewBuilder(4).AddEdge(0, 4).Build()
	if err == nil {
		t.Fatal("Build accepted an out-of-range destination")
	}
	_, err = NewBuilder(4).AddEdge(4, 0).Build()
	if err == nil {
		t.Fatal("Build accepted an out-of-range source")
	}
}

func TestDegrees(t *testing.T) {
	g := tinyGraph(t)
	out := g.OutDegrees()
	if out[0] != 3 || out[1] != 2 || out[2] != 3 {
		t.Errorf("out-degrees = %v %v %v, want 3 2 3", out[0], out[1], out[2])
	}
	in := g.InDegrees()
	if in[10] != 2 {
		t.Errorf("in-degree of 10 = %d, want 2", in[10])
	}
	if in[0] != 1 {
		t.Errorf("in-degree of 0 = %d, want 1", in[0])
	}
	if MaxDegree(out) != 3 {
		t.Errorf("MaxDegree = %d, want 3", MaxDegree(out))
	}
}

func TestAvgDegree(t *testing.T) {
	g := tinyGraph(t)
	want := 8.0 / 64.0
	if got := g.AvgDegree(); got != want {
		t.Errorf("AvgDegree = %v, want %v", got, want)
	}
	var empty Graph
	if got := empty.AvgDegree(); got != 0 {
		t.Errorf("empty AvgDegree = %v, want 0", got)
	}
}

// TestSortBySource holds SortBySource's contract: (src, dst) order, stable
// among equal endpoints, on any input size, and a panic naming the edge for
// an endpoint past NumVertices.
func TestSortBySource(t *testing.T) {
	bySrcDst := func(a, b Edge) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	}
	t.Run("stable", func(t *testing.T) {
		// Duplicate (src, dst) pairs told apart by weight keep their order.
		g := NewBuilder(3).
			AddWeightedEdge(2, 1, 5).AddWeightedEdge(0, 2, 1).AddWeightedEdge(2, 1, 3).
			AddWeightedEdge(0, 2, 4).AddWeightedEdge(2, 0, 9).AddWeightedEdge(2, 1, 7).
			MustBuild()
		g.SortBySource()
		want := []Edge{{0, 2, 1}, {0, 2, 4}, {2, 0, 9}, {2, 1, 5}, {2, 1, 3}, {2, 1, 7}}
		if !slices.Equal(g.Edges, want) {
			t.Fatalf("got %v, want %v", g.Edges, want)
		}
	})
	t.Run("empty-and-one", func(t *testing.T) {
		for _, g := range []*Graph{{}, {NumVertices: 5}, {NumVertices: 5, Edges: []Edge{{4, 3, 2}}}} {
			want := slices.Clone(g.Edges)
			g.SortBySource()
			if !slices.Equal(g.Edges, want) {
				t.Fatalf("got %v, want %v", g.Edges, want)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{1, 2, 17, 300} {
			g := &Graph{NumVertices: n, Weighted: true}
			for i := 0; i < 20*n; i++ {
				g.Edges = append(g.Edges, Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n)), float32(i)})
			}
			want := slices.Clone(g.Edges)
			slices.SortStableFunc(want, bySrcDst)
			g.SortBySource()
			if !slices.Equal(g.Edges, want) {
				t.Fatalf("%d vertices: counting sort differs from a stable comparison sort", n)
			}
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		// The bad id is near 2^32: a sort that sized anything by it would
		// allocate gigabytes before it failed.
		g := &Graph{NumVertices: 4, Edges: []Edge{{0, 1, 0}, {1, 1<<32 - 2, 0}}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			g.SortBySource()
			return nil
		}()
		runtime.ReadMemStats(&after)
		if s, _ := msg.(string); !strings.Contains(s, "edge 1 (1 -> 4294967294)") {
			t.Fatalf("panic %v, want one naming edge 1", msg)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("out-of-range sort allocated %d bytes", grew)
		}
	})
}

func TestBinaryRoundTrip(t *testing.T) {
	g := tinyGraph(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, g)
	}
}

func TestBinaryRoundTripWeighted(t *testing.T) {
	g := NewBuilder(3).
		AddWeightedEdge(0, 1, 2.5).AddWeightedEdge(1, 2, -1).
		MustBuild()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Weighted || got.Edges[0].Weight != 2.5 || got.Edges[1].Weight != -1 {
		t.Errorf("weighted round trip mismatch: %+v", got)
	}
}

// TestReadBinaryInMemoryBuffer: decoding a small graph from an in-memory
// reader allocates a default-sized read buffer, not ReadFile's 1 MB one.
func TestReadBinaryInMemoryBuffer(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyGraph(t).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes, want under 64 KiB", buf.Len(), got)
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph file at all......"))); err == nil {
		t.Fatal("ReadBinary accepted garbage")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadBinary accepted empty input")
	}
}

func TestLoadPairMissing(t *testing.T) {
	if _, _, err := LoadPair(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("LoadPair succeeded on missing files")
	}
}

// TestWriteEdgesFileCountsEdges: a sequence that yields fewer edges than the
// header declares fails the write instead of leaving a file ReadFile would
// call truncated.
func TestWriteEdgesFileCountsEdges(t *testing.T) {
	g := tinyGraph(t)
	path := filepath.Join(t.TempDir(), "g")
	if err := WriteEdgesFile(path, g.NumVertices, len(g.Edges)+1, false, slices.Values(g.Edges)); err == nil {
		t.Fatal("WriteEdgesFile accepted a short edge sequence")
	}
}

// TestBinaryRoundTripProperty round-trips randomized graphs through the
// binary codec.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, eRaw uint16) bool {
		n := int(nRaw)%100 + 1
		e := int(eRaw) % 500
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < e; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		g := b.MustBuild()
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBinaryRoundTripZeroEdges(t *testing.T) {
	// Regression: a zero-edge graph must round-trip to a nil edge slice,
	// exactly as Builder produces (found by the round-trip property test).
	g := NewBuilder(7).MustBuild()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Errorf("zero-edge round trip: got %#v, want %#v", got, g)
	}
	if got.Edges != nil {
		t.Error("decoder produced a non-nil empty edge slice")
	}
}

// TestVertexBound: a graph may have MaxVertices = 2^31 vertices and no more,
// and a mutation op naming id MaxVertices or past it, as source or
// destination, is refused with a *VertexIDError; id MaxVertices − 1 is
// accepted. Both checks read the op or the count alone: nothing is sized by N.
func TestVertexBound(t *testing.T) {
	if err := (&Graph{NumVertices: 1 << 31}).Validate(); err != nil {
		t.Errorf("2^31 vertices: %v", err)
	}
	for _, n := range []int{1<<31 + 1, 1 << 32, -1} {
		if (&Graph{NumVertices: n}).Validate() == nil {
			t.Errorf("Validate accepted %d vertices", n)
		}
	}
	for _, op := range []EdgeOp{{Src: 1 << 31}, {Dst: 1 << 31}, {Delete: true, Src: 1<<32 - 1, Dst: 3}} {
		err := ValidateEdgeOps([]EdgeOp{op})
		var ve *VertexIDError
		if !errors.As(err, &ve) || ve.Op != 0 || ve.ID != max(op.Src, op.Dst) {
			t.Errorf("op %+v: %v, want a *VertexIDError for op 0", op, err)
		}
	}
	if err := ValidateEdgeOps([]EdgeOp{{Src: 1<<31 - 1, Dst: 1<<31 - 1}}); err != nil {
		t.Errorf("id 2^31 − 1: %v", err)
	}
}
