package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// This file is the edge delta codec: the wire format of the per-graph
// write-ahead log (WAL) the store keeps under its data directory, and the
// canonical merge that folds a sequence of edge operations into a graph. The
// codec lives next to the snapshot format (io.go) because the two together
// define everything the store persists; the log lifecycle (serialized
// appends, rotation, recovery policy) lives in internal/store.
//
// Delta log format ("GRZW"), little-endian:
//
//	header (24 bytes):
//	    [4]byte  magic "GRZW"
//	    uint32   version (1)
//	    uint64   lineage  — identity of the base snapshot lineage this log
//	             applies to; a log whose lineage does not match the
//	             manifest's is stale (left over from before a whole-graph
//	             replace) and must be discarded, never replayed
//	    uint64   baseSeq  — sequence number of the last batch already folded
//	             into the base snapshot; records must carry baseSeq+1,
//	             baseSeq+2, ... with no gaps or duplicates
//	record (one per acknowledged mutation batch):
//	    uint32   crc      — IEEE CRC32 of the remaining record bytes
//	    uint64   seq
//	    uint32   nops     (1 ≤ nops ≤ MaxDeltaOps)
//	    nops ×   { uint8 op (0=insert, 1=delete), uint32 src, uint32 dst,
//	               uint32 weightBits }
//
// A record is the unit of atomicity: DecodeDeltaLog returns only batches
// whose frame is complete and whose CRC matches, so a batch is either fully
// applied or not at all — never partially. A frame that runs past the end of
// the buffer is a torn tail (the normal residue of a crash mid-append):
// matching ErrTornTail, with GoodLen marking the truncation point. A frame
// that is structurally implausible, fails its CRC while fully present, or
// breaks the sequence discipline is corruption: matching ErrCorrupt, and the
// store quarantines the segment rather than truncating it.
var (
	// ErrTornTail reports an incomplete final frame — the benign residue of a
	// crash mid-append. The decoded prefix is valid; truncate at GoodLen.
	ErrTornTail = errors.New("graph: torn delta log tail")
)

const (
	deltaMagic   = "GRZW"
	deltaVersion = 1

	// DeltaHeaderLen is the byte length of the delta log header.
	DeltaHeaderLen = 24
	// deltaFrameLen is the fixed prefix of every record: crc, seq, nops.
	deltaFrameLen = 4 + 8 + 4
	// deltaOpLen is the encoded size of one edge operation.
	deltaOpLen = 1 + 4 + 4 + 4
	// MaxDeltaOps bounds the operations in one batch; a frame declaring more
	// is structurally corrupt, so a bit-flipped count cannot force a huge
	// allocation or swallow the rest of the log as one giant frame.
	MaxDeltaOps = 1 << 20
)

// EdgeOp is one edge mutation: an upsert or a delete of the directed edge
// (Src, Dst). Operations address edges by endpoint pair, not by position:
// an insert replaces every existing (Src, Dst) edge with a single edge of
// the given weight, and a delete removes every (Src, Dst) edge. The final
// state of a pair therefore depends only on the last operation touching it,
// which is what makes replaying a delta log idempotent — the property the
// store's crash windows (snapshot renamed, log not yet rotated) rely on.
type EdgeOp struct {
	// Delete selects removal; false is an insert/upsert.
	Delete bool
	// Src and Dst are the edge endpoints. Inserts may name vertices beyond
	// the base graph's vertex count: the merged graph grows to fit.
	Src, Dst uint32
	// Weight is the edge weight for inserts into weighted graphs; ignored
	// (forced to zero) on unweighted graphs and on deletes.
	Weight float32
}

// DeltaBatch is one acknowledged mutation batch: the unit of WAL atomicity
// and of crash-consistency guarantees.
type DeltaBatch struct {
	Seq uint64
	Ops []EdgeOp
}

// MemoryBytes returns the heap footprint of the batch's operations.
func (b DeltaBatch) MemoryBytes() int64 {
	return int64(len(b.Ops)) * 16
}

// EncodedDeltaLen returns the encoded size of a record carrying n ops.
func EncodedDeltaLen(n int) int { return deltaFrameLen + n*deltaOpLen }

// EncodeDeltaHeader renders the 24-byte delta log header.
func EncodeDeltaHeader(lineage, baseSeq uint64) []byte {
	h := make([]byte, DeltaHeaderLen)
	copy(h, deltaMagic)
	binary.LittleEndian.PutUint32(h[4:], deltaVersion)
	binary.LittleEndian.PutUint64(h[8:], lineage)
	binary.LittleEndian.PutUint64(h[16:], baseSeq)
	return h
}

// decodeDeltaHeader parses a delta log header. Any failure is ErrCorrupt:
// a log whose header cannot be trusted has no safely decodable suffix.
func decodeDeltaHeader(b []byte) (lineage, baseSeq uint64, err error) {
	if len(b) < DeltaHeaderLen {
		return 0, 0, fmt.Errorf("%w: delta header truncated (%d bytes)", ErrCorrupt, len(b))
	}
	if string(b[:4]) != deltaMagic {
		return 0, 0, fmt.Errorf("%w: bad delta magic %q", ErrCorrupt, b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != deltaVersion {
		return 0, 0, fmt.Errorf("%w: unsupported delta version %d", ErrCorrupt, v)
	}
	return binary.LittleEndian.Uint64(b[8:]), binary.LittleEndian.Uint64(b[16:]), nil
}

// AppendDeltaRecord appends one CRC32-framed record for (seq, ops) to dst
// and returns the extended slice.
func AppendDeltaRecord(dst []byte, seq uint64, ops []EdgeOp) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, EncodedDeltaLen(len(ops)))...)
	rec := dst[start:]
	binary.LittleEndian.PutUint64(rec[4:], seq)
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(ops)))
	off := deltaFrameLen
	for _, op := range ops {
		if op.Delete {
			rec[off] = 1
		} else {
			rec[off] = 0
		}
		binary.LittleEndian.PutUint32(rec[off+1:], op.Src)
		binary.LittleEndian.PutUint32(rec[off+5:], op.Dst)
		binary.LittleEndian.PutUint32(rec[off+9:], floatBits(op.Weight))
		off += deltaOpLen
	}
	binary.LittleEndian.PutUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	return dst
}

// DeltaLog is the result of decoding a delta log buffer: the header fields,
// every fully-valid batch in order, and the byte length of that valid prefix
// (header included). GoodLen is where the store truncates after a torn tail.
type DeltaLog struct {
	Lineage uint64
	BaseSeq uint64
	Batches []DeltaBatch
	GoodLen int
}

// DecodeDeltaLog parses an entire delta log buffer. The returned error is
// nil for a clean log, matches ErrTornTail when the final frame is
// incomplete (Batches still holds the valid prefix — truncate at GoodLen and
// carry on), or matches ErrCorrupt when the log is damaged in a way
// truncation cannot explain: bad header, implausible frame, CRC mismatch on
// a fully-present record, or a sequence number that is not the predecessor's
// successor (duplicates and gaps both violate append-only discipline). On
// corruption Batches holds the valid prefix so the store can keep serving
// what was legible while it quarantines the segment.
func DecodeDeltaLog(data []byte) (DeltaLog, error) {
	var log DeltaLog
	lineage, baseSeq, err := decodeDeltaHeader(data)
	if err != nil {
		if len(data) < DeltaHeaderLen && canBeHeaderPrefix(data) {
			// Shorter than one header and consistent with a crash during the
			// very first write: nothing was ever acknowledged from this log.
			return log, fmt.Errorf("%w: log shorter than its header", ErrTornTail)
		}
		return log, err
	}
	log.Lineage, log.BaseSeq = lineage, baseSeq
	log.GoodLen = DeltaHeaderLen
	want := baseSeq + 1
	off := DeltaHeaderLen
	for off < len(data) {
		rest := data[off:]
		if len(rest) < deltaFrameLen {
			return log, fmt.Errorf("%w: partial frame header at offset %d", ErrTornTail, off)
		}
		nops := binary.LittleEndian.Uint32(rest[12:])
		if nops == 0 || nops > MaxDeltaOps {
			return log, fmt.Errorf("%w: implausible op count %d at offset %d", ErrCorrupt, nops, off)
		}
		recLen := EncodedDeltaLen(int(nops))
		if len(rest) < recLen {
			return log, fmt.Errorf("%w: partial record at offset %d (%d of %d bytes)", ErrTornTail, off, len(rest), recLen)
		}
		rec := rest[:recLen]
		if crc32.ChecksumIEEE(rec[4:]) != binary.LittleEndian.Uint32(rec) {
			return log, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		seq := binary.LittleEndian.Uint64(rec[4:])
		if seq != want {
			return log, fmt.Errorf("%w: sequence %d at offset %d, want %d", ErrCorrupt, seq, off, want)
		}
		ops := make([]EdgeOp, nops)
		p := deltaFrameLen
		for i := range ops {
			kind := rec[p]
			if kind > 1 {
				return log, fmt.Errorf("%w: unknown op kind %d in batch %d", ErrCorrupt, kind, seq)
			}
			ops[i] = EdgeOp{
				Delete: kind == 1,
				Src:    binary.LittleEndian.Uint32(rec[p+1:]),
				Dst:    binary.LittleEndian.Uint32(rec[p+5:]),
				Weight: bitsFloat(binary.LittleEndian.Uint32(rec[p+9:])),
			}
			p += deltaOpLen
		}
		log.Batches = append(log.Batches, DeltaBatch{Seq: seq, Ops: ops})
		off += recLen
		log.GoodLen = off
		want = seq + 1
	}
	return log, nil
}

// canBeHeaderPrefix reports whether data is a prefix of a valid header —
// distinguishing "crash before the header hit disk" (torn, recoverable by
// starting over) from "this was never a delta log" (corrupt).
func canBeHeaderPrefix(data []byte) bool {
	if len(data) > len(deltaMagic) {
		data = data[:len(deltaMagic)]
	}
	return string(data) == deltaMagic[:len(data)]
}

// ReduceEdgeOps collapses ops to the one operation that decides each
// (src, dst) pair — the last one naming it — sorted by (src, dst). Weights
// are forced to zero when the target graph is unweighted, so a weight bit can
// never leak into the cache key or the output. ApplyEdgeOps and the engine's
// layout splice (core.PatchGraph) both start from this list, which is what
// keeps their notions of "touched pair" identical.
func ReduceEdgeOps(ops []EdgeOp, weighted bool) []EdgeOp {
	final, _ := reduceEdgeOps(ops, weighted)
	return final
}

// pairKey packs an endpoint pair into one map key.
func pairKey(src, dst uint32) uint64 { return uint64(src)<<32 | uint64(dst) }

// reduceEdgeOps is ReduceEdgeOps plus the pair set it deduplicated with.
func reduceEdgeOps(ops []EdgeOp, weighted bool) ([]EdgeOp, map[uint64]int) {
	slot := make(map[uint64]int, len(ops))
	final := make([]EdgeOp, 0, len(ops))
	for _, op := range ops {
		if !weighted || op.Delete {
			op.Weight = 0
		}
		k := pairKey(op.Src, op.Dst)
		if i, seen := slot[k]; seen {
			final[i] = op
			continue
		}
		slot[k] = len(final)
		final = append(final, op)
	}
	sort.Slice(final, func(i, j int) bool {
		if final[i].Src != final[j].Src {
			return final[i].Src < final[j].Src
		}
		return final[i].Dst < final[j].Dst
	})
	return final, slot
}

// ApplyEdgeOps is the canonical merge: it returns a new graph equal to g
// with ops applied in order. Per (src, dst) pair the last operation wins —
// an insert leaves exactly one such edge with its weight, a delete leaves
// none. Untouched base edges keep their base-order positions; surviving
// inserted edges are appended in (src, dst) order. The function is pure and
// single-threaded, so the merged edge list — and therefore every
// bit-deterministic engine result computed from it — depends only on (g,
// ops), never on worker count. A version the store serves is defined as the
// layouts of its result: the store computes them from it only when no
// predecessor's layouts are in memory (a cold start, recovery, an evicted
// predecessor); otherwise the splice, core.PatchGraph, reproduces them from
// the predecessor's.
//
// Inserts may name vertices beyond g.NumVertices; the merged graph's vertex
// count grows to cover them. On unweighted graphs insert weights are forced
// to zero so a weight bit can never leak into the cache key or the output.
//
// The cost is one pass over the base edge list plus the batch: a base edge
// pays the pair lookup only when its source is one some operation names (a
// bitmap test), so a small batch costs little more than copying the list.
func ApplyEdgeOps(g *Graph, ops []EdgeOp) *Graph {
	final, touched := reduceEdgeOps(ops, g.Weighted)
	srcTouched := make([]uint64, (g.NumVertices+63)/64)
	for _, op := range final {
		if int(op.Src) < g.NumVertices {
			srcTouched[op.Src>>6] |= 1 << (op.Src & 63)
		}
	}
	out := &Graph{NumVertices: g.NumVertices, Weighted: g.Weighted}
	// Base edges survive in maximal runs between dropped ones: one copy each.
	edges := make([]Edge, len(g.Edges)+len(final))
	n, from := 0, 0
	for i, e := range g.Edges {
		if srcTouched[e.Src>>6]&(1<<(e.Src&63)) == 0 {
			continue
		}
		if _, hit := touched[pairKey(e.Src, e.Dst)]; hit {
			n += copy(edges[n:], g.Edges[from:i])
			from = i + 1
		}
	}
	n += copy(edges[n:], g.Edges[from:])
	out.Edges = edges[:n]
	for _, op := range final {
		if op.Delete {
			continue
		}
		out.Edges = append(out.Edges, Edge{Src: op.Src, Dst: op.Dst, Weight: op.Weight})
		if int(op.Src) >= out.NumVertices {
			out.NumVertices = int(op.Src) + 1
		}
		if int(op.Dst) >= out.NumVertices {
			out.NumVertices = int(op.Dst) + 1
		}
	}
	return out
}

// ValidateEdgeOps checks a mutation batch before it is logged: it must be
// non-empty, within the per-batch cap (the bound keeps a single request from
// monopolizing the log), and name no vertex id at or past MaxVertices — an
// insert grows the graph to cover its ids, so such an op would make a graph
// Validate refuses. That failure is a *VertexIDError.
func ValidateEdgeOps(ops []EdgeOp) error {
	if len(ops) == 0 {
		return errors.New("graph: empty mutation batch")
	}
	if len(ops) > MaxDeltaOps {
		return fmt.Errorf("graph: mutation batch of %d ops exceeds the %d cap", len(ops), MaxDeltaOps)
	}
	for i, op := range ops {
		if id := max(op.Src, op.Dst); id >= MaxVertices {
			return &VertexIDError{Op: i, ID: id}
		}
	}
	return nil
}

// VertexIDError is a mutation op naming a vertex id at or past MaxVertices.
type VertexIDError struct {
	Op int    // the op's position in its batch
	ID uint32 // the offending id
}

func (e *VertexIDError) Error() string {
	return fmt.Sprintf("graph: op %d names vertex %d; ids must be below %d", e.Op, e.ID, MaxVertices)
}
