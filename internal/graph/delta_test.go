package graph

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sampleLog encodes a header plus the given batches.
func sampleLog(lineage, baseSeq uint64, batches ...DeltaBatch) []byte {
	buf := EncodeDeltaHeader(lineage, baseSeq)
	for _, b := range batches {
		buf = AppendDeltaRecord(buf, b.Seq, b.Ops)
	}
	return buf
}

func TestDeltaLogRoundTrip(t *testing.T) {
	batches := []DeltaBatch{
		{Seq: 4, Ops: []EdgeOp{{Src: 1, Dst: 2, Weight: 0.5}, {Delete: true, Src: 3, Dst: 4}}},
		{Seq: 5, Ops: []EdgeOp{{Src: 9, Dst: 0, Weight: float32(math.Inf(1))}}},
	}
	buf := sampleLog(77, 3, batches...)
	log, err := DecodeDeltaLog(buf)
	if err != nil {
		t.Fatalf("DecodeDeltaLog: %v", err)
	}
	if log.Lineage != 77 || log.BaseSeq != 3 {
		t.Fatalf("header = (%d, %d), want (77, 3)", log.Lineage, log.BaseSeq)
	}
	if log.GoodLen != len(buf) {
		t.Fatalf("GoodLen = %d, want %d", log.GoodLen, len(buf))
	}
	if len(log.Batches) != 2 {
		t.Fatalf("decoded %d batches, want 2", len(log.Batches))
	}
	for i, b := range batches {
		got := log.Batches[i]
		if got.Seq != b.Seq || len(got.Ops) != len(b.Ops) {
			t.Fatalf("batch %d = %+v, want %+v", i, got, b)
		}
		for j, op := range b.Ops {
			g := got.Ops[j]
			if g.Delete != op.Delete || g.Src != op.Src || g.Dst != op.Dst ||
				math.Float32bits(g.Weight) != math.Float32bits(op.Weight) {
				t.Fatalf("batch %d op %d = %+v, want %+v", i, j, g, op)
			}
		}
	}
}

func TestDeltaLogTornTail(t *testing.T) {
	full := sampleLog(1, 0,
		DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2}}},
		DeltaBatch{Seq: 2, Ops: []EdgeOp{{Src: 3, Dst: 4}, {Delete: true, Src: 1, Dst: 2}}},
	)
	goodOne := DeltaHeaderLen + EncodedDeltaLen(1)
	for cut := goodOne + 1; cut < len(full); cut++ {
		log, err := DecodeDeltaLog(full[:cut])
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut %d: err = %v, want ErrTornTail", cut, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: torn tail also matches ErrCorrupt", cut)
		}
		if len(log.Batches) != 1 || log.Batches[0].Seq != 1 {
			t.Fatalf("cut %d: prefix batches %+v, want just seq 1", cut, log.Batches)
		}
		if log.GoodLen != goodOne {
			t.Fatalf("cut %d: GoodLen = %d, want %d", cut, log.GoodLen, goodOne)
		}
	}
	// A header-only log, and a torn header, are both valid empty states.
	if log, err := DecodeDeltaLog(full[:DeltaHeaderLen]); err != nil || len(log.Batches) != 0 {
		t.Fatalf("header-only: %v %+v", err, log.Batches)
	}
	if _, err := DecodeDeltaLog(full[:3]); !errors.Is(err, ErrTornTail) {
		t.Fatalf("torn header: err = %v, want ErrTornTail", err)
	}
}

func TestDeltaLogCorruption(t *testing.T) {
	base := sampleLog(1, 0,
		DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2}}},
		DeltaBatch{Seq: 2, Ops: []EdgeOp{{Src: 3, Dst: 4}}},
	)
	flip := func(i int) []byte {
		b := append([]byte(nil), base...)
		b[i] ^= 0xFF
		return b
	}
	rec1 := DeltaHeaderLen

	t.Run("bit flip in a fully-present record", func(t *testing.T) {
		log, err := DecodeDeltaLog(flip(rec1 + deltaFrameLen + 1)) // src byte of batch 1
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(log.Batches) != 0 {
			t.Fatalf("batches after mid-log corruption = %+v, want none before the damage", log.Batches)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		if _, err := DecodeDeltaLog(flip(0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("duplicate sequence number", func(t *testing.T) {
		dup := sampleLog(1, 0,
			DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2}}},
			DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 3, Dst: 4}}},
		)
		log, err := DecodeDeltaLog(dup)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(log.Batches) != 1 {
			t.Fatalf("valid prefix = %d batches, want 1", len(log.Batches))
		}
	})
	t.Run("sequence gap", func(t *testing.T) {
		gap := sampleLog(1, 5, DeltaBatch{Seq: 9, Ops: []EdgeOp{{Src: 1, Dst: 2}}})
		if _, err := DecodeDeltaLog(gap); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("implausible op count", func(t *testing.T) {
		b := append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(b[rec1+12:], MaxDeltaOps+1)
		if _, err := DecodeDeltaLog(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestApplyEdgeOpsLastWriterWins(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1).AddEdge(1, 2).AddEdge(1, 2).AddEdge(2, 3).MustBuild()
	out := ApplyEdgeOps(g, []EdgeOp{
		{Src: 1, Dst: 2, Weight: 9},        // upsert collapses the duplicate pair
		{Delete: true, Src: 0, Dst: 1},     // delete a base edge
		{Src: 3, Dst: 0},                   // fresh insert
		{Delete: true, Src: 3, Dst: 0},     // ... then delete it: last op wins
		{Src: 0, Dst: 2}, {Src: 0, Dst: 2}, // idempotent double insert
		{Delete: true, Src: 9, Dst: 9}, // delete of an absent edge: no-op
	})
	want := []Edge{{Src: 2, Dst: 3}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	if len(out.Edges) != len(want) {
		t.Fatalf("edges = %+v, want %+v", out.Edges, want)
	}
	for i, e := range want {
		if out.Edges[i] != e {
			t.Fatalf("edge %d = %+v, want %+v", i, out.Edges[i], e)
		}
	}
	if out.NumVertices != 4 {
		t.Fatalf("NumVertices = %d, want 4", out.NumVertices)
	}
	// Weights are zeroed on unweighted graphs.
	for _, e := range out.Edges {
		if e.Weight != 0 {
			t.Fatalf("unweighted merge leaked weight on %+v", e)
		}
	}
	if g.NumEdges() != 4 {
		t.Fatal("ApplyEdgeOps mutated its input")
	}
}

func TestApplyEdgeOpsGrowsAndReplaysIdempotently(t *testing.T) {
	g := NewBuilder(2).SetWeighted().AddWeightedEdge(0, 1, 1.5).MustBuild()
	ops := []EdgeOp{
		{Src: 5, Dst: 0, Weight: 2.5}, // grows the vertex set to 6
		{Src: 0, Dst: 1, Weight: 7},   // re-weights the base edge
	}
	once := ApplyEdgeOps(g, ops)
	if once.NumVertices != 6 {
		t.Fatalf("NumVertices = %d, want 6", once.NumVertices)
	}
	if err := once.Validate(); err != nil {
		t.Fatal(err)
	}
	// apply(ops, apply(ops, g)) == apply(ops, g): the replay-idempotence the
	// store's compaction crash windows depend on.
	twice := ApplyEdgeOps(once, ops)
	if len(once.Edges) != len(twice.Edges) {
		t.Fatalf("replay changed edge count: %d vs %d", len(once.Edges), len(twice.Edges))
	}
	for i := range once.Edges {
		if once.Edges[i] != twice.Edges[i] {
			t.Fatalf("replay changed edge %d: %+v vs %+v", i, once.Edges[i], twice.Edges[i])
		}
	}
}

// referenceApplyEdgeOps is ApplyEdgeOps as first written — a pair map
// consulted for every base edge, inserts sorted afterwards — kept as the
// oracle the faster merge must match edge for edge.
func referenceApplyEdgeOps(g *Graph, ops []EdgeOp) *Graph {
	type pair struct{ src, dst uint32 }
	final := make(map[pair]EdgeOp, len(ops))
	for _, op := range ops {
		if !g.Weighted {
			op.Weight = 0
		}
		final[pair{op.Src, op.Dst}] = op
	}
	out := &Graph{NumVertices: g.NumVertices, Weighted: g.Weighted}
	out.Edges = make([]Edge, 0, len(g.Edges)+len(final))
	for _, e := range g.Edges {
		if _, touched := final[pair{e.Src, e.Dst}]; touched {
			continue
		}
		out.Edges = append(out.Edges, e)
	}
	inserts := make([]Edge, 0, len(final))
	for _, op := range final {
		if op.Delete {
			continue
		}
		inserts = append(inserts, Edge{Src: op.Src, Dst: op.Dst, Weight: op.Weight})
		if int(op.Src) >= out.NumVertices {
			out.NumVertices = int(op.Src) + 1
		}
		if int(op.Dst) >= out.NumVertices {
			out.NumVertices = int(op.Dst) + 1
		}
	}
	sort.Slice(inserts, func(i, j int) bool {
		if inserts[i].Src != inserts[j].Src {
			return inserts[i].Src < inserts[j].Src
		}
		return inserts[i].Dst < inserts[j].Dst
	})
	out.Edges = append(out.Edges, inserts...)
	return out
}

// TestApplyEdgeOpsMatchesReference: same vertex count and the same edges in
// the same order as the reference merge, on weighted and unweighted graphs
// with duplicate base edges, for batches that upsert, delete, repeat pairs,
// miss, and name vertices past the end — chained, so later rounds merge into
// an already-merged list.
func TestApplyEdgeOpsMatchesReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		rng := rand.New(rand.NewSource(15))
		g := &Graph{NumVertices: 70, Weighted: weighted}
		for i := 0; i < 600; i++ {
			e := Edge{Src: uint32(rng.Intn(70)), Dst: uint32(rng.Intn(70))}
			if weighted {
				e.Weight = float32(rng.Intn(9))
			}
			g.Edges = append(g.Edges, e)
		}
		for round := 0; round < 30; round++ {
			ops := make([]EdgeOp, 1+rng.Intn(1<<uint(rng.Intn(9))))
			for i := range ops {
				ops[i] = EdgeOp{
					Delete: rng.Intn(3) == 0,
					Src:    uint32(rng.Intn(g.NumVertices + 2)),
					Dst:    uint32(rng.Intn(g.NumVertices + 2)),
					Weight: float32(rng.Intn(9)),
				}
				if rng.Intn(3) == 0 { // an edge the list already has
					e := g.Edges[rng.Intn(len(g.Edges))]
					ops[i].Src, ops[i].Dst = e.Src, e.Dst
				}
			}
			got, want := ApplyEdgeOps(g, ops), referenceApplyEdgeOps(g, ops)
			if got.NumVertices != want.NumVertices || got.Weighted != want.Weighted || !slices.Equal(got.Edges, want.Edges) {
				t.Fatalf("weighted=%v round %d (%d ops): merge differs from the reference", weighted, round, len(ops))
			}
			g = got
		}
	}
}

// FuzzWALReplay hammers the delta log decoder with arbitrary bytes: it must
// never panic, never return a partially-decoded batch, and classify every
// input as clean, torn, or corrupt. The valid prefix must re-decode to the
// same batches — the invariant the store's truncate-and-reopen path relies
// on.
func FuzzWALReplay(f *testing.F) {
	valid := sampleLog(3, 0,
		DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2, Weight: 0.25}}},
		DeltaBatch{Seq: 2, Ops: []EdgeOp{{Delete: true, Src: 1, Dst: 2}, {Src: 4, Dst: 5}}},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:DeltaHeaderLen])
	f.Add([]byte{})
	f.Add([]byte("GRZW"))
	dup := sampleLog(3, 0,
		DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2}}},
		DeltaBatch{Seq: 1, Ops: []EdgeOp{{Src: 1, Dst: 2}}},
	)
	f.Add(dup)
	mutated := append([]byte(nil), valid...)
	mutated[DeltaHeaderLen+6] ^= 0x40
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		log, err := DecodeDeltaLog(data)
		if err != nil && !errors.Is(err, ErrTornTail) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unclassified error: %v", err)
		}
		if log.GoodLen > len(data) {
			t.Fatalf("GoodLen %d beyond input %d", log.GoodLen, len(data))
		}
		want := log.BaseSeq
		for _, b := range log.Batches {
			want++
			if b.Seq != want {
				t.Fatalf("non-contiguous decoded seq %d, want %d", b.Seq, want)
			}
			if len(b.Ops) == 0 || len(b.Ops) > MaxDeltaOps {
				t.Fatalf("batch %d decoded with %d ops", b.Seq, len(b.Ops))
			}
		}
		if err == nil && log.GoodLen != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", log.GoodLen, len(data))
		}
		// The valid prefix must re-decode identically: truncating at GoodLen
		// and reopening yields exactly the batches we just applied.
		if log.GoodLen >= DeltaHeaderLen {
			again, err2 := DecodeDeltaLog(data[:log.GoodLen])
			if err2 != nil {
				t.Fatalf("valid prefix failed to re-decode: %v", err2)
			}
			if len(again.Batches) != len(log.Batches) {
				t.Fatalf("prefix re-decode: %d batches, want %d", len(again.Batches), len(log.Batches))
			}
		}
	})
}
