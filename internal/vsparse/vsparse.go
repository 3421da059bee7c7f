// Package vsparse implements the Vector-Sparse edge format (§4 of the
// paper), the modification of Compressed-Sparse that makes the pull engine's
// inner loop vectorizable. Edges are packed four per 256-bit vector; each
// vertex's edge group is padded to a whole number of vectors so every load
// is aligned and unguarded, per-lane valid bits drive predicated execution
// instead of bounds checks, and the 48-bit top-level vertex id is embedded
// in the vector itself so the inner loop can detect outer-loop transitions
// without touching the vertex index.
//
// Bit layout of one 64-bit lane (Fig 4):
//
//	bit  63     valid
//	bits 62:48  piece of the top-level vertex id (lane 0 uses only 50:48)
//	bits 47:0   individual (neighbor) vertex id
//
// The 48-bit top-level id is split 3+15+15+15 across the four lanes, most
// significant piece first.
package vsparse

import (
	"fmt"

	"repro/internal/csr"
	"repro/internal/vec"
)

const (
	// ValidBit flags a lane as carrying a real edge.
	ValidBit = uint64(1) << 63
	// VertexMask selects the 48-bit individual vertex id of a lane.
	VertexMask = (uint64(1) << 48) - 1

	// Lane 0 carries top-level id bits 47:45 in lane bits 50:48; lanes 1-3
	// carry 15-bit pieces in lane bits 62:48.
	lane0PieceBits = 3
	laneNPieceBits = 15
	pieceShift     = 48
	lane0PieceMask = (uint64(1) << lane0PieceBits) - 1
	laneNPieceMask = (uint64(1) << laneNPieceBits) - 1
)

// Array is a Vector-Sparse edge structure. When ByDest is true the top-level
// vertices are destinations (VSD, the pull engine's layout); otherwise
// sources (VSS, the push engine's layout).
type Array struct {
	// N is the number of top-level vertices.
	N int
	// Words holds the lane data, 4 lanes (one vector) at a time; its length
	// is 4×NumVectors.
	Words []uint64
	// Weights holds lane-parallel edge weights (the paper appends one weight
	// vector per edge vector); nil for unweighted graphs. Padding lanes hold
	// zero.
	Weights []float32
	// Index maps a top-level vertex to its first vector; vertex v owns
	// vectors [Index[v], Index[v+1]). Degree-0 vertices own zero vectors.
	// The inner loop never reads this — it exists for frontier-driven
	// engines that skip whole vertices.
	Index []int
	// ByDest records the grouping (VSD when true, VSS when false).
	ByDest bool
	// ValidEdges is the number of real (non-padding) lanes.
	ValidEdges int
}

// NumVectors returns the number of 4-lane vectors.
func (a *Array) NumVectors() int { return len(a.Words) / vec.Lanes }

// MemoryBytes returns the heap footprint of the array's backing storage.
func (a *Array) MemoryBytes() int64 {
	return int64(len(a.Words))*8 + int64(len(a.Weights))*4 + int64(len(a.Index))*8
}

// Vector loads vector i as a register value.
func (a *Array) Vector(i int) vec.U64x4 { return vec.Load(a.Words, i*vec.Lanes) }

// WeightVector loads the four lane weights of vector i; zero lanes when the
// array is unweighted.
func (a *Array) WeightVector(i int) [vec.Lanes]float32 {
	var w [vec.Lanes]float32
	if a.Weights != nil {
		copy(w[:], a.Weights[i*vec.Lanes:(i+1)*vec.Lanes])
	}
	return w
}

// EncodeVector packs up to four neighbor ids of top-level vertex top into
// one vector. valid gives the live lane count (1..4).
func EncodeVector(top uint64, neighbors [vec.Lanes]uint64, valid int) vec.U64x4 {
	var v vec.U64x4
	pieces := splitTop(top)
	for i := 0; i < vec.Lanes; i++ {
		lane := pieces[i] | (neighbors[i] & VertexMask)
		if i < valid {
			lane |= ValidBit
		}
		v[i] = lane
	}
	return v
}

// splitTop distributes the 48-bit top-level id across the four lanes'
// piece fields (already shifted into position).
func splitTop(top uint64) [vec.Lanes]uint64 {
	return [vec.Lanes]uint64{
		((top >> 45) & lane0PieceMask) << pieceShift,
		((top >> 30) & laneNPieceMask) << pieceShift,
		((top >> 15) & laneNPieceMask) << pieceShift,
		(top & laneNPieceMask) << pieceShift,
	}
}

// DecodeTop reassembles the 48-bit top-level vertex id embedded in a vector.
// This is the extractDest() of the paper's Listing 7: the inner loop calls
// it instead of consulting the vertex index or performing bounds checks.
func DecodeTop(v vec.U64x4) uint64 {
	return ((v[0]>>pieceShift)&lane0PieceMask)<<45 |
		((v[1]>>pieceShift)&laneNPieceMask)<<30 |
		((v[2]>>pieceShift)&laneNPieceMask)<<15 |
		(v[3]>>pieceShift)&laneNPieceMask
}

// Neighbors extracts the individual vertex id of every lane (extractSources
// in Listing 7). Invalid lanes return their padding value.
func Neighbors(v vec.U64x4) vec.U64x4 { return vec.And(v, VertexMask) }

// Valid extracts the per-lane valid mask (consumed as gather predication).
func Valid(v vec.U64x4) vec.Mask { return vec.SignMask(v) }

// FromCSR converts a Compressed-Sparse matrix into Vector-Sparse form,
// preserving grouping and neighbor order. Each top-level vertex's group is
// padded to a multiple of the vector length; padding lanes are invalid and
// replicate the group's last neighbor id — an in-range value, which the
// kernels rely on: their frontier test gathers through all four lanes
// unpredicated and applies the valid mask afterwards (vec.TestBits).
func FromCSR(m *csr.Matrix) *Array {
	a := &Array{N: m.N, ByDest: m.ByDest, ValidEdges: m.NumEdges()}
	a.Index = make([]int, m.N+1)
	totalVectors := 0
	for v := 0; v < m.N; v++ {
		a.Index[v] = totalVectors
		totalVectors += vectorsFor(m.Degree(uint32(v)))
	}
	a.Index[m.N] = totalVectors
	a.Words = make([]uint64, totalVectors*vec.Lanes)
	if m.Weights != nil {
		a.Weights = make([]float32, totalVectors*vec.Lanes)
	}
	out := 0
	for v := 0; v < m.N; v++ {
		out = a.encodeGroup(out, uint64(v), m.Edges(uint32(v)), m.EdgeWeights(uint32(v)))
	}
	return a
}

// encodeGroup writes top's vector run — neigh packed four to a vector, the
// last one padded — at vector position out and returns the position after
// it. Nothing it writes depends on out: a vector embeds its top-level id and
// its neighbour ids, so a run is valid wherever it lands. FromCSR and Patch
// both encode through here, which is what keeps a spliced array
// byte-identical to a rebuilt one. weights is nil on unweighted arrays.
func (a *Array) encodeGroup(out int, top uint64, neigh []uint32, weights []float32) int {
	for lo := 0; lo < len(neigh); lo += vec.Lanes {
		valid := len(neigh) - lo
		if valid > vec.Lanes {
			valid = vec.Lanes
		}
		var lanes [vec.Lanes]uint64
		for i := 0; i < vec.Lanes; i++ {
			if i < valid {
				lanes[i] = uint64(neigh[lo+i])
			} else {
				lanes[i] = uint64(neigh[lo+valid-1]) // padding: repeat last
			}
		}
		vec.Store(a.Words, out*vec.Lanes, EncodeVector(top, lanes, valid))
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
	out := &Array{N: m.N, ByDest: m.ByDest, ValidEdges: m.NumEdges()}
	total := a.NumVectors()
	for _, v := range touched {
		total += vectorsFor(m.Degree(v))
		if int(v) < a.N {
			total -= a.Index[v+1] - a.Index[v]
		}
	}
	out.Index = make([]int, m.N+1)
	out.Words = make([]uint64, total*vec.Lanes)
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
			pos = out.encodeGroup(pos, uint64(v), m.Edges(v), m.EdgeWeights(v))
		})
	out.Index[m.N] = pos
	return out
}

// ToCSR reconstructs the Compressed-Sparse matrix the array encodes,
// dropping padding lanes.
func (a *Array) ToCSR() *csr.Matrix {
	m := &csr.Matrix{N: a.N, ByDest: a.ByDest}
	m.Index = make([]uint64, a.N+1)
	m.Neigh = make([]uint32, 0, a.ValidEdges)
	if a.Weights != nil {
		m.Weights = make([]float32, 0, a.ValidEdges)
	}
	for v := 0; v < a.N; v++ {
		m.Index[v] = uint64(len(m.Neigh))
		for i := a.Index[v]; i < a.Index[v+1]; i++ {
			vv := a.Vector(i)
			mask := Valid(vv)
			for lane := 0; lane < vec.Lanes; lane++ {
				if mask.Bit(lane) {
					m.Neigh = append(m.Neigh, uint32(vv[lane]&VertexMask))
					if a.Weights != nil {
						m.Weights = append(m.Weights, a.Weights[i*vec.Lanes+lane])
					}
				}
			}
		}
	}
	m.Index[a.N] = uint64(len(m.Neigh))
	return m
}

// Validate checks encoding invariants: every vector's embedded top-level id
// matches the index that owns it, every lane — valid or padding — holds an
// in-range id, lane validity is a prefix, and ValidEdges matches the live
// lane count.
func (a *Array) Validate() error {
	if len(a.Index) != a.N+1 {
		return fmt.Errorf("vsparse: index length %d, want %d", len(a.Index), a.N+1)
	}
	if len(a.Words)%vec.Lanes != 0 {
		return fmt.Errorf("vsparse: %d words is not a whole number of vectors", len(a.Words))
	}
	live := 0
	for v := 0; v < a.N; v++ {
		if a.Index[v+1] < a.Index[v] {
			return fmt.Errorf("vsparse: index not monotone at %d", v)
		}
		for i := a.Index[v]; i < a.Index[v+1]; i++ {
			vv := a.Vector(i)
			if got := DecodeTop(vv); got != uint64(v) {
				return fmt.Errorf("vsparse: vector %d embeds top id %d, owned by %d", i, got, v)
			}
			mask := Valid(vv)
			seenInvalid := false
			for lane := 0; lane < vec.Lanes; lane++ {
				// Dead lanes too: the kernels gather through every lane
				// unpredicated (vec.TestBits) and mask afterwards.
				if vv[lane]&VertexMask >= uint64(a.N) {
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
	if a.Index[a.N] != a.NumVectors() {
		return fmt.Errorf("vsparse: index does not cover all %d vectors", a.NumVectors())
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
