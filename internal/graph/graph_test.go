package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
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

func TestSortBySource(t *testing.T) {
	g := tinyGraph(t)
	rand.New(rand.NewSource(1)).Shuffle(len(g.Edges), func(i, j int) {
		g.Edges[i], g.Edges[j] = g.Edges[j], g.Edges[i]
	})
	g.SortBySource()
	for i := 1; i < len(g.Edges); i++ {
		a, b := g.Edges[i-1], g.Edges[i]
		if a.Src > b.Src || (a.Src == b.Src && a.Dst > b.Dst) {
			t.Fatalf("edges not sorted by source at %d: %v then %v", i, a, b)
		}
	}
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
