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

	"repro/internal/csr"
	"repro/internal/vec"
)

const (
	// ValidBit flags a lane as carrying a real edge.
	ValidBit = uint32(1) << 31
	// VertexMask selects the 31-bit individual vertex id of a lane.
	VertexMask = ValidBit - 1
)

// Array is a Vector-Sparse edge structure, grouped by destination (VSD, the
// pull engine's layout) or by source (VSS, the push engine's layout) as the
// csr.Matrix it was built from is.
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
}

// NumVectors returns the number of 4-lane vectors.
func (a *Array) NumVectors() int { return len(a.Words) / vec.Lanes }

// MemoryBytes returns the heap footprint of the array's backing storage.
func (a *Array) MemoryBytes() int64 {
	return int64(len(a.Words))*4 + int64(len(a.Weights))*4 + int64(len(a.Index))*8
}

// Vector loads vector i as a register value.
func (a *Array) Vector(i int) vec.U32x4 { return vec.U32x4(a.Words[i*vec.Lanes:]) }

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
	a := &Array{N: m.N, ValidEdges: m.NumEdges()}
	a.Index = make([]int, m.N+1)
	totalVectors := 0
	for v := 0; v < m.N; v++ {
		a.Index[v] = totalVectors
		totalVectors += vectorsFor(m.Degree(uint32(v)))
	}
	a.Index[m.N] = totalVectors
	a.Words = make([]uint32, totalVectors*vec.Lanes)
	if m.Weights != nil {
		a.Weights = make([]float32, totalVectors*vec.Lanes)
	}
	out := 0
	for v := 0; v < m.N; v++ {
		out = a.encodeGroup(out, m.Edges(uint32(v)), m.EdgeWeights(uint32(v)))
	}
	return a
}

// encodeGroup writes one top-level vertex's vector run — neigh packed four
// to a vector, the last one padded — at vector position out and returns the
// position after it. Nothing it writes depends on out or on the vertex: a
// vector holds neighbour ids and valid bits alone, so a run is valid wherever
// it lands, and Index alone says whose it is. FromCSR and Patch both encode
// through here, which is what keeps a spliced array byte-identical to a
// rebuilt one. weights is nil on unweighted arrays.
func (a *Array) encodeGroup(out int, neigh []uint32, weights []float32) int {
	for lo := 0; lo < len(neigh); lo += vec.Lanes {
		valid := len(neigh) - lo
		if valid > vec.Lanes {
			valid = vec.Lanes
		}
		var lanes [vec.Lanes]uint32
		for i := 0; i < vec.Lanes; i++ {
			if i < valid {
				lanes[i] = neigh[lo+i]
			} else {
				lanes[i] = neigh[lo+valid-1] // padding: repeat last
			}
		}
		*(*vec.U32x4)(a.Words[out*vec.Lanes:]) = EncodeVector(lanes, valid)
		if weights != nil {
			copy(a.Weights[out*vec.Lanes:], weights[lo:lo+valid])
		}
		out++
	}
	return out
}

// vectorsFor is the number of vectors a group of the given degree occupies.
func vectorsFor(degree int) int { return (degree + vec.Lanes - 1) / vec.Lanes }

// Patch returns FromCSR(m) given a, the encoding of m's predecessor, and the
// ascending list of top-level vertices whose groups differ between the two
// (csr.Matrix.Patch reports it); m may have more vertices than a. A maximal
// run of untouched vertices is one copy of its vectors, which stay valid at
// their new offset because nothing in a vector is positional; only touched
// groups are encoded again.
func (a *Array) Patch(m *csr.Matrix, touched []uint32) *Array {
	out := &Array{N: m.N, ValidEdges: m.NumEdges()}
	total := a.NumVectors()
	for _, v := range touched {
		total += vectorsFor(m.Degree(v))
		if int(v) < a.N {
			total -= a.Index[v+1] - a.Index[v]
		}
	}
	out.Index = make([]int, m.N+1)
	out.Words = make([]uint32, total*vec.Lanes)
	if m.Weights != nil {
		out.Weights = make([]float32, total*vec.Lanes)
	}
	pos := 0 // next free vector of out
	csr.WalkPatch(a.N, m.N, touched,
		func(lo, hi int) {
			from, to := a.Index[lo], a.Index[hi]
			copy(out.Words[pos*vec.Lanes:], a.Words[from*vec.Lanes:to*vec.Lanes])
			if out.Weights != nil {
				copy(out.Weights[pos*vec.Lanes:], a.Weights[from*vec.Lanes:to*vec.Lanes])
			}
			for v := lo; v < hi; v++ {
				out.Index[v] = a.Index[v] - from + pos
			}
			pos += to - from
		},
		func(lo, hi int) {
			for v := lo; v < hi; v++ {
				out.Index[v] = pos
			}
		},
		func(v uint32) {
			out.Index[v] = pos
			pos = out.encodeGroup(pos, m.Edges(v), m.EdgeWeights(v))
		})
	out.Index[m.N] = pos
	return out
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
