// Package vsparse implements the Vector-Sparse edge format (§4 of the
// paper), the modification of Compressed-Sparse that makes the pull engine's
// inner loop vectorizable. Edges are packed four per 256-bit vector; each
// vertex's edge group is padded to a whole number of vectors so every load
// is aligned and unguarded, and per-lane valid bits drive predicated
// execution instead of bounds checks. Index is the one record of which
// vectors a top-level vertex owns: the pull kernels take every run's end and
// a chunk's first destination from it, and the push kernels every source's
// vectors. The paper's lanes are 64 bits: a valid bit, a 48-bit neighbor id,
// and a slice of the top-level id split across each vector's upper lane
// bits, so that its assembly loop can detect outer-loop transitions without
// the index. No kernel here reads such a copy, so a lane carries none, and a
// lane is 32 bits, all the kernels read: a vector is 16 bytes, and the pull
// kernels stream half the bytes per edge (DESIGN.md §2).
//
// An array is the whole of its grouping: a group's valid lanes are a prefix
// of its vectors, in the Compressed-Sparse group's order, so Degree and Group
// read a vertex's edges back, ToGraph and WriteFile every edge, and Patch
// splices a mutation in without a Compressed-Sparse matrix beside it.
//
// Bit layout of one 32-bit lane:
//
//	bit  31     valid
//	bits 30:0   individual (neighbor) vertex id
//
// The kernels' dword-index gathers read a lane word as a signed index, so an
// id must be below 2^31; graph.Validate bounds every graph to
// graph.MaxVertices = 2^31 vertices.
package vsparse

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/csr"
	"repro/internal/graph"
	"repro/internal/vec"
)

const (
	// ValidBit flags a lane as carrying a real edge.
	ValidBit = uint32(1) << 31
	// VertexMask selects the 31-bit individual vertex id of a lane.
	VertexMask = ValidBit - 1
)

// Array is a Vector-Sparse edge structure, grouped by destination (VSD, the
// pull engine's layout) or by source (VSS, the push engine's layout).
type Array struct {
	// N is the number of top-level vertices.
	N int
	// Words holds the lane data, 4 lanes (one vector) at a time; its length
	// is 4×NumVectors.
	Words []uint32
	// Weights holds lane-parallel edge weights (the paper appends one weight
	// vector per edge vector); nil for unweighted graphs. Padding lanes hold
	// zero.
	Weights []float32
	// Index maps a top-level vertex to its first vector; vertex v owns
	// vectors [Index[v], Index[v+1]). Degree-0 vertices own zero vectors.
	// It is the only record of a vector's owner: the chunk kernels read it
	// for every run's end, and the engine searches it for a chunk's first
	// destination.
	Index []int
	// ValidEdges is the number of real (non-padding) lanes.
	ValidEdges int
	// ByDest records whether top-level vertices are destinations (VSD) or
	// sources (VSS), as csr.Matrix.ByDest does.
	ByDest bool
}

// NumVectors returns the number of 4-lane vectors.
func (a *Array) NumVectors() int { return len(a.Words) / vec.Lanes }

// MemoryBytes returns the heap footprint of the array's backing storage.
func (a *Array) MemoryBytes() int64 {
	return int64(len(a.Words))*4 + int64(len(a.Weights))*4 + int64(len(a.Index))*8
}

// Vector loads vector i as a register value.
func (a *Array) Vector(i int) vec.U32x4 { return vec.U32x4(a.Words[i*vec.Lanes:]) }

// Degree returns the number of edges grouped under top-level vertex v: the
// lanes of its vectors less the dead lanes of the last one.
func (a *Array) Degree(v uint32) int {
	lo, hi := a.Index[v], a.Index[v+1]
	if lo == hi {
		return 0
	}
	return (hi-lo-1)*vec.Lanes + Valid(a.Vector(hi-1)).Count()
}

// Group returns top-level vertex v's edges: its valid lanes — each a
// neighbour id with ValidBit set, in the order of the Compressed-Sparse group
// they encode — and their weights, nil when the array is unweighted. Valid
// lanes are a prefix of the group's vectors, so both are subslices of the
// array, shared and read-only.
func (a *Array) Group(v uint32) (lanes []uint32, weights []float32) {
	lo := a.Index[v] * vec.Lanes
	hi := lo + a.Degree(v)
	if a.Weights != nil {
		weights = a.Weights[lo:hi]
	}
	return a.Words[lo:hi], weights
}

// EncodeVector packs up to four neighbor ids into one vector. valid gives
// the live lane count (1..4).
func EncodeVector(neighbors [vec.Lanes]uint32, valid int) vec.U32x4 {
	var v vec.U32x4
	for i := range v {
		v[i] = neighbors[i] & VertexMask
		if i < valid {
			v[i] |= ValidBit
		}
	}
	return v
}

// Valid extracts the per-lane valid mask (consumed as gather predication).
func Valid(v vec.U32x4) vec.Mask { return vec.SignMask(v) }

// FromCSR converts a Compressed-Sparse matrix into Vector-Sparse form,
// preserving grouping and neighbor order. Each top-level vertex's group is
// padded to a multiple of the vector length; padding lanes are invalid and
// replicate the group's last neighbor id — an in-range value, which the
// kernels rely on: their frontier test gathers through all four lanes
// unpredicated and applies the valid mask afterwards (vec.TestBits).
func FromCSR(m *csr.Matrix) *Array {
	a := &Array{N: m.N, ValidEdges: m.NumEdges(), ByDest: m.ByDest, Index: make([]int, m.N+1)}
	vectors := 0
	for v := range m.N {
		vectors += vectorsFor(m.Degree(uint32(v)))
	}
	a.Words = make([]uint32, 0, vectors*vec.Lanes)
	if m.Weights != nil {
		a.Weights = make([]float32, 0, vectors*vec.Lanes)
	}
	for v := range m.N {
		a.Index[v] = a.NumVectors()
		a.appendGroup(m.Edges(uint32(v)), m.EdgeWeights(uint32(v)))
	}
	a.Index[m.N] = a.NumVectors()
	return a
}

// appendGroup appends one top-level vertex's vector run: neigh (neighbour
// ids, with or without ValidBit) packed four to a vector, the last one
// padded. Nothing it writes depends on where the run lands or on the vertex:
// a vector holds neighbour ids and valid bits alone, so a run is valid
// wherever it lands, and Index alone says whose it is. FromCSR and Patch both
// encode through here, which is what keeps a spliced array byte-identical to
// a rebuilt one. weights is read only on weighted arrays.
func (a *Array) appendGroup(neigh []uint32, weights []float32) {
	for lo := 0; lo < len(neigh); lo += vec.Lanes {
		valid := min(len(neigh)-lo, vec.Lanes)
		var lanes [vec.Lanes]uint32
		for i := range lanes {
			lanes[i] = neigh[lo+min(i, valid-1)] // padding: repeat last
		}
		v := EncodeVector(lanes, valid)
		a.Words = append(a.Words, v[:]...)
		if a.Weights != nil {
			var w [vec.Lanes]float32
			copy(w[:], weights[lo:lo+valid])
			a.Weights = append(a.Weights, w[:]...)
		}
	}
}

// vectorsFor is the number of vectors a group of the given degree occupies.
func vectorsFor(degree int) int { return (degree + vec.Lanes - 1) / vec.Lanes }

// ToGraph reconstructs the edge list the array encodes, in (src, dst)
// orientation, in group order.
func (a *Array) ToGraph() *graph.Graph {
	g := &graph.Graph{NumVertices: a.N, Weighted: a.Weights != nil}
	g.Edges = slices.AppendSeq(make([]graph.Edge, 0, a.ValidEdges), a.all())
	return g
}

// WriteFile persists the edges the array encodes as a graph file
// (graph.ReadFile reads it back), streamed out of its valid lanes in group
// order: by (src, dst) for VSS, by (dst, src) for VSD. That is the order of
// the Compressed-Sparse matrix the array encodes, edge for edge, so the file
// is byte for byte the one csr.Matrix.WriteFile writes, and csr.FromGraph of
// either grouping over its edges rebuilds the layouts of the graph a came
// from, duplicate edges and their weights included.
func (a *Array) WriteFile(path string) error {
	return graph.WriteEdgesFile(path, a.N, a.ValidEdges, a.Weights != nil, a.all())
}

// all yields every edge in (src, dst) orientation, in group order.
func (a *Array) all() iter.Seq[graph.Edge] {
	return func(yield func(graph.Edge) bool) {
		for v := uint32(0); int(v) < a.N; v++ {
			lanes, weights := a.Group(v)
			for i, w := range lanes {
				e := graph.Edge{Src: v, Dst: w & VertexMask}
				if a.ByDest {
					e.Src, e.Dst = e.Dst, e.Src
				}
				if weights != nil {
					e.Weight = weights[i]
				}
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Patch returns the array a rebuild would encode, in a's grouping, from
// graph.ApplyEdgeOps(src, ops) — for any edge list src whose encoding is
// a — without seeing src. A maximal run of untouched vertices is one copy of
// its vectors, which stay valid at their new offset because nothing in a
// vector is positional; only the groups an edit names are merged and
// encoded again.
//
// edits is graph.ReduceEdgeOps(ops, weighted) — one operation per (src, dst)
// pair — sorted by (top-level vertex, neighbour) in a's grouping, and n ≥ a.N
// is the merged graph's vertex count.
//
// Why the result is byte-identical to a rebuild: a group is the stable sort
// by neighbour of its vertex's base edges in base order. ApplyEdgeOps keeps
// untouched base edges in base order, so their stable sort is the old group
// minus the touched neighbours; and a touched pair leaves at most one edge,
// whose neighbour id no surviving edge of the group shares, so its sorted
// position is unique however the rebuild would have reached it.
func (a *Array) Patch(n int, edits []graph.EdgeOp) *Array {
	out := &Array{N: n, ValidEdges: a.ValidEdges, ByDest: a.ByDest, Index: make([]int, n+1)}
	// An edit adds at most one lane to a group, so at most one vector: the
	// appends below never outgrow this.
	out.Words = make([]uint32, 0, len(a.Words)+len(edits)*vec.Lanes)
	if a.Weights != nil {
		out.Weights = make([]float32, 0, cap(out.Words))
	}
	next := 0 // first vertex not yet placed
	// upTo places the untouched vertices [next, hi): old ones by one copy of
	// their vectors, new ones as empty groups.
	upTo := func(hi int) {
		if mid := min(hi, a.N); next < mid {
			from, to := a.Index[next], a.Index[mid]
			for v := next; v < mid; v++ {
				out.Index[v] = a.Index[v] - from + out.NumVectors()
			}
			out.Words = append(out.Words, a.Words[from*vec.Lanes:to*vec.Lanes]...)
			if a.Weights != nil {
				out.Weights = append(out.Weights, a.Weights[from*vec.Lanes:to*vec.Lanes]...)
			}
			next = mid
		}
		for ; next < hi; next++ {
			out.Index[next] = out.NumVectors()
		}
	}
	var lanes []uint32 // one touched group's merge
	var weights []float32
	for i := 0; i < len(edits); {
		v, _ := a.ends(edits[i])
		j := i + 1
		for j < len(edits) {
			if t, _ := a.ends(edits[j]); t != v {
				break
			}
			j++
		}
		// A group at or past n can only be named by deletes of edges that
		// never existed: the merged graph has no such vertex.
		if int(v) < n {
			upTo(int(v))
			var old []uint32
			var oldW []float32
			if int(v) < a.N {
				old, oldW = a.Group(v)
			}
			lanes, weights = a.mergeGroup(lanes[:0], weights[:0], old, oldW, edits[i:j])
			out.ValidEdges += len(lanes) - len(old)
			out.Index[v] = out.NumVectors()
			out.appendGroup(lanes, weights)
			next = int(v) + 1
		}
		i = j
	}
	upTo(n)
	out.Index[n] = out.NumVectors()
	return out
}

// ends returns op's top-level vertex and neighbour in a's grouping.
func (a *Array) ends(op graph.EdgeOp) (top, neighbour uint32) {
	if a.ByDest {
		return op.Dst, op.Src
	}
	return op.Src, op.Dst
}

// mergeGroup appends one touched group to lanes/weights: the old group's
// lanes (Group) with every neighbour an edit names removed, merged with the
// edits that insert. edits name one top-level vertex and ascend by
// neighbour.
func (a *Array) mergeGroup(lanes []uint32, weights []float32, old []uint32, oldW []float32, edits []graph.EdgeOp) ([]uint32, []float32) {
	weighted := a.Weights != nil
	k := 0
	keep := func(hi int) {
		lanes = append(lanes, old[k:hi]...)
		if weighted {
			weights = append(weights, oldW[k:hi]...)
		}
		k = hi
	}
	for _, op := range edits {
		_, nb := a.ends(op)
		hi := k
		for hi < len(old) && old[hi]&VertexMask < nb {
			hi++
		}
		keep(hi)
		for k < len(old) && old[k]&VertexMask == nb {
			k++ // every old edge of a touched pair goes
		}
		if !op.Delete {
			lanes = append(lanes, ValidBit|nb)
			if weighted {
				weights = append(weights, op.Weight)
			}
		}
	}
	keep(len(old))
	return lanes, weights
}

// Validate checks encoding invariants: Index starts at vector 0, is
// monotone and covers every vector; a weighted array has one weight per lane;
// every lane — valid or padding — holds an in-range id; lane validity is a
// prefix; and ValidEdges matches the live lane count.
func (a *Array) Validate() error {
	if len(a.Index) != a.N+1 {
		return fmt.Errorf("vsparse: index length %d, want %d", len(a.Index), a.N+1)
	}
	if len(a.Words)%vec.Lanes != 0 {
		return fmt.Errorf("vsparse: %d words is not a whole number of vectors", len(a.Words))
	}
	if a.Weights != nil && len(a.Weights) != len(a.Words) {
		return fmt.Errorf("vsparse: %d weights for %d lanes", len(a.Weights), len(a.Words))
	}
	if a.Index[0] != 0 || a.Index[a.N] != a.NumVectors() {
		return fmt.Errorf("vsparse: index spans vectors [%d, %d), want [0, %d)", a.Index[0], a.Index[a.N], a.NumVectors())
	}
	live := 0
	for v := 0; v < a.N; v++ {
		if a.Index[v+1] < a.Index[v] {
			return fmt.Errorf("vsparse: index not monotone at %d", v)
		}
		for i := a.Index[v]; i < a.Index[v+1]; i++ {
			vv := a.Vector(i)
			mask := Valid(vv)
			seenInvalid := false
			for lane := 0; lane < vec.Lanes; lane++ {
				// Dead lanes too: the kernels gather through every lane
				// unpredicated (vec.TestBits) and mask afterwards. A dead
				// lane's word is its id alone, so a stray bit 31 would read
				// as valid and anything in bits 30:0 past N as out of range.
				if uint64(vv[lane]&VertexMask) >= uint64(a.N) {
					return fmt.Errorf("vsparse: vector %d lane %d neighbor out of range", i, lane)
				}
				if mask.Bit(lane) {
					if seenInvalid {
						return fmt.Errorf("vsparse: vector %d validity is not a prefix", i)
					}
					live++
				} else {
					seenInvalid = true
				}
			}
			if mask == 0 {
				return fmt.Errorf("vsparse: vector %d has no valid lanes", i)
			}
		}
	}
	if live != a.ValidEdges {
		return fmt.Errorf("vsparse: %d live lanes, recorded %d", live, a.ValidEdges)
	}
	return nil
}

// PackingEfficiency is the fraction of lanes that carry real edges — the
// metric of the paper's Fig 9. It ranges over (0, 1]; 25% means every vector
// holds a single edge.
func (a *Array) PackingEfficiency() float64 {
	if len(a.Words) == 0 {
		return 0
	}
	return float64(a.ValidEdges) / float64(len(a.Words))
}

// PackingEfficiencyForLanes computes, analytically from a degree
// distribution, the packing efficiency a Vector-Sparse encoding with the
// given lane count would achieve. Fig 9 evaluates lanes ∈ {4, 8, 16}
// (256-, 512-, and 1024-bit vectors).
func PackingEfficiencyForLanes(degrees []int, lanes int) float64 {
	validLanes, totalLanes := 0, 0
	for _, d := range degrees {
		if d == 0 {
			continue
		}
		vectors := (d + lanes - 1) / lanes
		validLanes += d
		totalLanes += vectors * lanes
	}
	if totalLanes == 0 {
		return 0
	}
	return float64(validLanes) / float64(totalLanes)
}
