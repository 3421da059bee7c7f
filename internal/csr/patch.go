package csr

import "repro/internal/graph"

// Patch returns the matrix FromGraph would build, in m's orientation, from
// graph.ApplyEdgeOps(src, ops) — for any edge list src that FromGraph turns
// into m — without seeing src, plus the top-level vertices whose groups it
// re-derived, ascending. Everything else is one copy per maximal run of
// untouched vertices with the index shifted by the edges gained or lost
// before the run.
//
// edits is graph.ReduceEdgeOps(ops, weighted) — one operation per (src, dst)
// pair — sorted by (top-level vertex, neighbour) in m's orientation, and
// n ≥ m.N is the merged graph's vertex count.
//
// Why the result is byte-identical to a rebuild: a group of m is the stable
// sort by neighbour of its vertex's base edges in base order. ApplyEdgeOps
// keeps untouched base edges in base order, so their stable sort is the old
// group minus the touched neighbours; and a touched pair leaves at most one
// edge, whose neighbour id no surviving edge of the group shares, so its
// sorted position is unique however the rebuild would have reached it.
func (m *Matrix) Patch(n int, edits []graph.EdgeOp) (*Matrix, []uint32) {
	// Merge every touched group into scratch first: the new array lengths
	// are known only once each group's survivors are counted.
	var (
		touched []uint32
		ends    []int // ends[k]: scratch length after touched[k]'s group
		neigh   []uint32
		weights []float32
	)
	total := len(m.Neigh)
	for i := 0; i < len(edits); {
		v, _ := m.ends(edits[i])
		j := i + 1
		for j < len(edits) {
			if t, _ := m.ends(edits[j]); t != v {
				break
			}
			j++
		}
		// A group at or past n can only be named by deletes of edges that
		// never existed: the merged graph has no such vertex.
		if int(v) < n {
			var old []uint32
			var oldW []float32
			if int(v) < m.N {
				old, oldW = m.Edges(v), m.EdgeWeights(v)
			}
			before := len(neigh)
			neigh, weights = m.mergeGroup(neigh, weights, old, oldW, edits[i:j])
			total += len(neigh) - before - len(old)
			touched = append(touched, v)
			ends = append(ends, len(neigh))
		}
		i = j
	}

	out := &Matrix{N: n, ByDest: m.ByDest}
	out.Index = make([]uint64, n+1)
	out.Neigh = make([]uint32, total)
	if m.Weights != nil {
		out.Weights = make([]float32, total)
	}
	pos := uint64(0) // next free slot of out.Neigh
	k, start := 0, 0 // next touched group, and where it begins in scratch
	WalkPatch(m.N, n, touched,
		func(lo, hi int) {
			a, b := m.Index[lo], m.Index[hi]
			copy(out.Neigh[pos:], m.Neigh[a:b])
			if m.Weights != nil {
				copy(out.Weights[pos:], m.Weights[a:b])
			}
			shift := pos - a // modulo 2^64: a shrinking prefix wraps and un-wraps
			for v := lo; v < hi; v++ {
				out.Index[v] = m.Index[v] + shift
			}
			pos += b - a
		},
		func(lo, hi int) {
			for v := lo; v < hi; v++ {
				out.Index[v] = pos
			}
		},
		func(v uint32) {
			out.Index[v] = pos
			copy(out.Neigh[pos:], neigh[start:ends[k]])
			if m.Weights != nil {
				copy(out.Weights[pos:], weights[start:ends[k]])
			}
			pos += uint64(ends[k] - start)
			start = ends[k]
			k++
		})
	out.Index[n] = pos
	return out, touched
}

// WalkPatch visits the vertices [0, n) of a structure being spliced out of
// one with oldN ≤ n vertices, in ascending order, as the three kinds of span
// a splice treats differently: kept(lo, hi) for a maximal range of old
// vertices no edit touched (one copy), added(lo, hi) for a range of untouched
// vertices new to this version (empty groups), and group(v) for each vertex
// of touched, which must ascend. Matrix.Patch and vsparse's Array.Patch walk
// the same spans over different units.
func WalkPatch(oldN, n int, touched []uint32, kept, added func(lo, hi int), group func(v uint32)) {
	next := 0
	upTo := func(hi int) {
		if mid := min(hi, oldN); next < mid {
			kept(next, mid)
			next = mid
		}
		if next < hi {
			added(next, hi)
			next = hi
		}
	}
	for _, v := range touched {
		upTo(int(v))
		group(v)
		next = int(v) + 1
	}
	upTo(n)
}

// ends returns op's top-level vertex and neighbour in m's orientation.
func (m *Matrix) ends(op graph.EdgeOp) (top, neighbour uint32) {
	if m.ByDest {
		return op.Dst, op.Src
	}
	return op.Src, op.Dst
}

// mergeGroup appends one touched group to neigh/weights: the old group with
// every neighbour an edit names removed, merged with the edits that insert.
// edits name one top-level vertex and ascend by neighbour.
func (m *Matrix) mergeGroup(neigh []uint32, weights []float32, old []uint32, oldW []float32, edits []graph.EdgeOp) ([]uint32, []float32) {
	weighted := m.Weights != nil
	k := 0
	keep := func(hi int) {
		neigh = append(neigh, old[k:hi]...)
		if weighted {
			weights = append(weights, oldW[k:hi]...)
		}
		k = hi
	}
	for _, op := range edits {
		_, nb := m.ends(op)
		hi := k
		for hi < len(old) && old[hi] < nb {
			hi++
		}
		keep(hi)
		for k < len(old) && old[k] == nb {
			k++ // every old edge of a touched pair goes
		}
		if !op.Delete {
			neigh = append(neigh, nb)
			if weighted {
				weights = append(weights, op.Weight)
			}
		}
	}
	keep(len(old))
	return neigh, weights
}
