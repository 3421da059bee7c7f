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
// splices a mutation in without a Compressed-Sparse matrix beside it. Its
// lanes lie in slabs, each the vectors of SlabVertices consecutive top-level
// vertices, so a patched array shares every slab its edits leave alone with
// the array it was patched from.
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
	"sort"
	"unsafe"

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

// SlabShift sets the slab size: slab s holds the vectors of the top-level
// vertices [s·SlabVertices, (s+1)·SlabVertices), the last slab fewer. A slab
// is the unit a mutated version shares with its predecessor (Patch): a slab
// no edit names is the predecessor's, by slice header, and only the slabs a
// batch touches are encoded again. Smaller slabs copy less per touched group
// and cost the chunk walks more sub-calls; DESIGN.md §18 records the sizes
// measured.
const SlabShift = 7

// SlabVertices is the number of top-level vertices a slab holds, a power of
// two and a multiple of 64, so a slab's vertices are whole frontier words.
const SlabVertices = 1 << SlabShift

// Slab is the lane data of one slab's vertices, in vertex order.
type Slab struct {
	// Base is the array-wide number of the slab's first vector, Index of its
	// first vertex: vector vi of the array is vector vi − Base of the slab
	// that holds it. It is the kernels' base argument, kept beside Index so
	// that a lookup of one vertex's vectors (Vectors, once per pushed
	// source) reads the slab header it needs anyway, not another Index line.
	Base int
	// Words holds the lane data, 4 lanes (one vector) at a time.
	Words []uint32
	// Weights holds lane-parallel edge weights (the paper appends one weight
	// vector per edge vector); nil for unweighted arrays. Padding lanes hold
	// zero.
	Weights []float32
}

// Array is a Vector-Sparse edge structure, grouped by destination (VSD, the
// pull engine's layout) or by source (VSS, the push engine's layout). Its
// vectors are numbered array-wide, as if the slabs lay end to end; Index and
// every chunk grid count in that numbering.
type Array struct {
	// N is the number of top-level vertices.
	N int
	// Slabs holds the lane data, (N+SlabVertices−1)/SlabVertices slabs.
	Slabs []Slab
	// Index maps a top-level vertex to its first vector; vertex v owns
	// vectors [Index[v], Index[v+1]). Degree-0 vertices own zero vectors.
	// It is the only record of a vector's owner: the chunk kernels read it
	// for every run's end, and the engine searches it for a chunk's first
	// destination.
	Index []int
	// ValidEdges is the number of real (non-padding) lanes.
	ValidEdges int
	// Weighted records whether every slab carries Weights.
	Weighted bool
	// ByDest records whether top-level vertices are destinations (VSD) or
	// sources (VSS), as csr.Matrix.ByDest does.
	ByDest bool
}

// numSlabs is the number of slabs an array of n top-level vertices has.
func numSlabs(n int) int { return (n + SlabVertices - 1) / SlabVertices }

// slabVertices returns the top-level vertices [lo, hi) slab s of an n-vertex
// array holds.
func slabVertices(s, n int) (lo, hi int) {
	return s << SlabShift, min((s+1)<<SlabShift, n)
}

// NumVectors returns the number of 4-lane vectors.
func (a *Array) NumVectors() int { return a.Index[a.N] }

// SlabEnd returns the array-wide number of the first vector past slab s: the
// vector a chunk walk that reaches it cuts its sub-call at.
func (a *Array) SlabEnd(s int) int {
	_, hi := slabVertices(s, a.N)
	return a.Index[hi]
}

// MemoryBytes returns the heap footprint of the array's backing storage:
// every slab it references, whether or not another version shares it.
func (a *Array) MemoryBytes() int64 {
	total := int64(len(a.Index))*8 + int64(len(a.Slabs))*int64(unsafe.Sizeof(Slab{}))
	for _, s := range a.Slabs {
		total += int64(len(s.Words))*4 + int64(len(s.Weights))*4
	}
	return total
}

// Vectors returns the lane words of top-level vertex v's vectors, padding
// included, and their weights (nil when the array is unweighted): subslices
// of v's slab, shared and read-only.
func (a *Array) Vectors(v uint32) (words []uint32, weights []float32) {
	s := &a.Slabs[v>>SlabShift]
	lo, hi := (a.Index[v]-s.Base)*vec.Lanes, (a.Index[v+1]-s.Base)*vec.Lanes
	if s.Weights != nil {
		weights = s.Weights[lo:hi]
	}
	return s.Words[lo:hi], weights
}

// Vector loads vector i, numbered array-wide, as a register value. It finds
// i's slab by a search; the engine's walks know their slab and read its
// words directly.
func (a *Array) Vector(i int) vec.U32x4 {
	s := &a.Slabs[sort.Search(len(a.Slabs), func(s int) bool {
		return a.Slabs[s].Base+len(a.Slabs[s].Words)/vec.Lanes > i
	})]
	return vec.U32x4(s.Words[(i-s.Base)*vec.Lanes:])
}

// Degree returns the number of edges grouped under top-level vertex v: the
// lanes of its vectors less the dead lanes of the last one.
func (a *Array) Degree(v uint32) int {
	words, _ := a.Vectors(v)
	return lanesIn(words)
}

// lanesIn is the number of valid lanes in one group's vectors.
func lanesIn(words []uint32) int {
	if len(words) == 0 {
		return 0
	}
	return len(words) - vec.Lanes + Valid(vec.U32x4(words[len(words)-vec.Lanes:])).Count()
}

// Group returns top-level vertex v's edges: its valid lanes — each a
// neighbour id with ValidBit set, in the order of the Compressed-Sparse group
// they encode — and their weights, nil when the array is unweighted. Valid
// lanes are a prefix of the group's vectors, so both are subslices of v's
// slab, shared and read-only.
func (a *Array) Group(v uint32) (lanes []uint32, weights []float32) {
	words, ws := a.Vectors(v)
	d := lanesIn(words)
	if ws != nil {
		ws = ws[:d]
	}
	return words[:d], ws
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
// unpredicated and applies the valid mask afterwards (vec.TestBits). The
// slabs are consecutive, capacity-bounded pieces of one allocation: a walk
// streams the array as one run of memory (per-slab allocations cost a
// rank-sum sweep of U×4 3 %), and a later version shares any one of them.
func FromCSR(m *csr.Matrix) *Array {
	a := &Array{N: m.N, ValidEdges: m.NumEdges(), Weighted: m.Weights != nil, ByDest: m.ByDest,
		Index: make([]int, m.N+1), Slabs: make([]Slab, numSlabs(m.N))}
	for v := range m.N {
		a.Index[v+1] = a.Index[v] + vectorsFor(m.Degree(uint32(v)))
	}
	words := make([]uint32, a.NumVectors()*vec.Lanes)
	var weights []float32
	if a.Weighted {
		weights = make([]float32, len(words))
	}
	for s := range a.Slabs {
		lo, hi := slabVertices(s, m.N)
		from, to := a.Index[lo]*vec.Lanes, a.Index[hi]*vec.Lanes
		sl := Slab{Base: a.Index[lo], Words: words[from:from:to]}
		if a.Weighted {
			sl.Weights = weights[from:from:to]
		}
		for v := lo; v < hi; v++ {
			sl.appendGroup(m.Edges(uint32(v)), m.EdgeWeights(uint32(v)))
		}
		a.Slabs[s] = sl
	}
	return a
}

// newSlab returns an empty slab starting at vector base with room for the
// given number of vectors, weighted when the array is: an allocation of its
// own, for a slab Patch encodes again.
func (a *Array) newSlab(base, vectors int) Slab {
	s := Slab{Base: base, Words: make([]uint32, 0, vectors*vec.Lanes)}
	if a.Weighted {
		s.Weights = make([]float32, 0, vectors*vec.Lanes)
	}
	return s
}

// appendGroup appends one top-level vertex's vector run: neigh (neighbour
// ids, with or without ValidBit) packed four to a vector, the last one
// padded. Nothing it writes depends on where the run lands or on the vertex:
// a vector holds neighbour ids and valid bits alone, so a run is valid
// wherever it lands, and Index alone says whose it is. FromCSR and Patch both
// encode through here, which is what keeps a spliced array byte-identical to
// a rebuilt one. weights is read only on weighted slabs.
func (s *Slab) appendGroup(neigh []uint32, weights []float32) {
	for lo := 0; lo < len(neigh); lo += vec.Lanes {
		valid := min(len(neigh)-lo, vec.Lanes)
		var lanes [vec.Lanes]uint32
		for i := range lanes {
			lanes[i] = neigh[lo+min(i, valid-1)] // padding: repeat last
		}
		v := EncodeVector(lanes, valid)
		s.Words = append(s.Words, v[:]...)
		if s.Weights != nil {
			var w [vec.Lanes]float32
			copy(w[:], weights[lo:lo+valid])
			s.Weights = append(s.Weights, w[:]...)
		}
	}
}

// appendVectors appends vectors [lo, hi) of slab from, numbered array-wide,
// as they are.
func (s *Slab) appendVectors(from *Slab, lo, hi int) {
	lo, hi = (lo-from.Base)*vec.Lanes, (hi-from.Base)*vec.Lanes
	s.Words = append(s.Words, from.Words[lo:hi]...)
	if s.Weights != nil {
		s.Weights = append(s.Weights, from.Weights[lo:hi]...)
	}
}

// vectorsFor is the number of vectors a group of the given degree occupies.
func vectorsFor(degree int) int { return (degree + vec.Lanes - 1) / vec.Lanes }

// ToGraph reconstructs the edge list the array encodes, in (src, dst)
// orientation, in group order.
func (a *Array) ToGraph() *graph.Graph {
	g := &graph.Graph{NumVertices: a.N, Weighted: a.Weighted}
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
	return graph.WriteEdgesFile(path, a.N, a.ValidEdges, a.Weighted, a.all())
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
// a — without seeing src. A slab no edit names is a's, shared by slice
// header: its vectors stay valid at their new offset because nothing in a
// vector is positional, and only its Base and its vertices' Index entries
// move. A slab an edit names is encoded again: a maximal run of its
// untouched vertices is one copy of their vectors, and only the groups an
// edit names are merged and encoded again. Index is rebuilt, O(n).
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
// position is unique however the rebuild would have reached it. A slab's
// vectors are its vertices' groups in vertex order, and vertices a.N and up
// own none unless an edit names them, so a shared slab is the one a rebuild
// would encode too.
func (a *Array) Patch(n int, edits []graph.EdgeOp) *Array {
	out := &Array{N: n, ValidEdges: a.ValidEdges, Weighted: a.Weighted, ByDest: a.ByDest,
		Index: make([]int, n+1), Slabs: make([]Slab, numSlabs(n))}
	base := 0 // vectors placed so far
	i := 0    // first edit not yet applied
	for s := range out.Slabs {
		lo, hi := slabVertices(s, n)
		j := i
		for j < len(edits) {
			if t, _ := a.ends(edits[j]); int(t) >= hi {
				break
			}
			j++
		}
		var old *Slab
		if s < len(a.Slabs) {
			old = &a.Slabs[s]
		}
		if i == j {
			// Untouched: a's slab at its new offset, or an empty one past a.
			if old != nil {
				out.Slabs[s] = Slab{Base: base, Words: old.Words, Weights: old.Weights}
			} else {
				out.Slabs[s] = out.newSlab(base, 0)
			}
			end := base + len(out.Slabs[s].Words)/vec.Lanes
			for v := lo; v < hi; v++ {
				out.Index[v] = end // vertices a.N and up own no vectors
				if v < a.N {
					out.Index[v] = a.Index[v] - old.Base + base
				}
			}
			base = end
			continue
		}
		// An edit adds at most one lane to a group, so at most one vector.
		oldVectors := 0
		if old != nil {
			oldVectors = len(old.Words) / vec.Lanes
		}
		sl := out.newSlab(base, oldVectors+j-i)
		out.patchSlab(&sl, a, old, lo, hi, edits[i:j])
		out.Slabs[s] = sl
		base += len(sl.Words) / vec.Lanes
		i = j
	}
	// Edits left over name groups at or past n: only deletes of edges that
	// never existed do, and the merged graph has no such vertex.
	out.Index[n] = base
	return out
}

// patchSlab encodes slab sl, vertices [lo, hi) of out, from old — a's slab
// of the same vertices, nil past a's last — and edits, the ones naming a
// vertex of the slab. It sets those vertices' Index entries and adds the
// lane difference to out.ValidEdges.
func (out *Array) patchSlab(sl *Slab, a *Array, old *Slab, lo, hi int, edits []graph.EdgeOp) {
	next := lo // first vertex not yet placed
	// upTo places the untouched vertices [next, to): old ones by one copy of
	// their vectors, new ones as empty groups.
	upTo := func(to int) {
		if mid := min(to, a.N); next < mid {
			from := a.Index[next]
			for v := next; v < mid; v++ {
				out.Index[v] = a.Index[v] - from + sl.Base + len(sl.Words)/vec.Lanes
			}
			sl.appendVectors(old, from, a.Index[mid])
			next = mid
		}
		for ; next < to; next++ {
			out.Index[next] = sl.Base + len(sl.Words)/vec.Lanes
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
		upTo(int(v))
		var oldLanes []uint32
		var oldW []float32
		if int(v) < a.N {
			oldLanes, oldW = a.Group(v)
		}
		lanes, weights = a.mergeGroup(lanes[:0], weights[:0], oldLanes, oldW, edits[i:j])
		out.ValidEdges += len(lanes) - len(oldLanes)
		out.Index[v] = sl.Base + len(sl.Words)/vec.Lanes
		sl.appendGroup(lanes, weights)
		next = int(v) + 1
		i = j
	}
	upTo(hi)
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
	weighted := a.Weighted
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

// Validate checks encoding invariants: Index starts at vector 0 and is
// monotone; there is one slab per SlabVertices vertices, each starting at its
// first vertex's Index entry and holding exactly its vertices' vectors; a
// weighted array has one weight per lane in every slab; every lane — valid or
// padding — holds an in-range id; lane validity is a prefix; and ValidEdges
// matches the live lane count.
func (a *Array) Validate() error {
	if len(a.Index) != a.N+1 {
		return fmt.Errorf("vsparse: index length %d, want %d", len(a.Index), a.N+1)
	}
	if len(a.Slabs) != numSlabs(a.N) {
		return fmt.Errorf("vsparse: %d slabs for %d vertices, want %d", len(a.Slabs), a.N, numSlabs(a.N))
	}
	if a.Index[0] != 0 {
		return fmt.Errorf("vsparse: index starts at vector %d, want 0", a.Index[0])
	}
	for v := 0; v < a.N; v++ {
		if a.Index[v+1] < a.Index[v] {
			return fmt.Errorf("vsparse: index not monotone at %d", v)
		}
	}
	for s, sl := range a.Slabs {
		lo, hi := slabVertices(s, a.N)
		if sl.Base != a.Index[lo] || len(sl.Words) != (a.Index[hi]-a.Index[lo])*vec.Lanes {
			return fmt.Errorf("vsparse: slab %d holds %d words from vector %d, want vectors [%d, %d)",
				s, len(sl.Words), sl.Base, a.Index[lo], a.Index[hi])
		}
		if (sl.Weights != nil) != a.Weighted || (a.Weighted && len(sl.Weights) != len(sl.Words)) {
			return fmt.Errorf("vsparse: slab %d has %d weights for %d lanes (weighted %v)", s, len(sl.Weights), len(sl.Words), a.Weighted)
		}
	}
	live := 0
	for v := 0; v < a.N; v++ {
		words, _ := a.Vectors(uint32(v))
		for k := 0; k < len(words); k += vec.Lanes {
			i := a.Index[v] + k/vec.Lanes
			vv := vec.U32x4(words[k:])
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
	if a.NumVectors() == 0 {
		return 0
	}
	return float64(a.ValidEdges) / float64(a.NumVectors()*vec.Lanes)
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
