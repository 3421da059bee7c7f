// Package frontier provides the active-vertex set representations used by
// the engines. Grazelle itself uses only the dense bitmask (§5 of the
// paper: one bit per vertex, searched a word at a time with the tzcnt
// idiom); the Ligra baseline additionally uses a sparse list and switches
// between the two by density.
package frontier

import "math/bits"

// Dense is a bitmask frontier: bit v set means vertex v is active. The
// paper chose this representation for compactness (1 billion vertices in
// 125 MB) and constant-time membership.
type Dense struct {
	words []uint64
	n     int
}

// NewDense creates an empty dense frontier over n vertices.
func NewDense(n int) *Dense {
	return &Dense{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of vertices the frontier ranges over.
func (d *Dense) Len() int { return d.n }

// Words exposes the raw bitmask for vectorized membership tests
// (vec.TestBits) and word-level iteration.
func (d *Dense) Words() []uint64 { return d.words }

// Add marks vertex v active.
func (d *Dense) Add(v uint32) { d.words[v>>6] |= 1 << (v & 63) }

// Remove marks vertex v inactive.
func (d *Dense) Remove(v uint32) { d.words[v>>6] &^= 1 << (v & 63) }

// Contains reports whether vertex v is active.
func (d *Dense) Contains(v uint32) bool {
	return d.words[v>>6]&(1<<(v&63)) != 0
}

// Clear deactivates every vertex.
func (d *Dense) Clear() {
	for i := range d.words {
		d.words[i] = 0
	}
}

// Fill activates every vertex.
func (d *Dense) Fill() {
	for i := range d.words {
		d.words[i] = ^uint64(0)
	}
	d.trimTail()
}

// trimTail clears bits beyond n in the last word.
func (d *Dense) trimTail() {
	if rem := d.n & 63; rem != 0 && len(d.words) > 0 {
		d.words[len(d.words)-1] &= (1 << rem) - 1
	}
}

// Count returns the number of active vertices.
func (d *Dense) Count() int {
	c := 0
	for _, w := range d.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every vertex is active. It stops at the first word
// with a hole, so on anything but a (nearly) full frontier it is O(1).
func (d *Dense) Full() bool {
	whole := d.n >> 6 // words every bit of which is a vertex
	for _, w := range d.words[:whole] {
		if w != ^uint64(0) {
			return false
		}
	}
	rem := d.n & 63
	return rem == 0 || d.words[whole] == 1<<rem-1
}

// Empty reports whether no vertex is active.
func (d *Dense) Empty() bool {
	for _, w := range d.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Density is the active fraction, the quantity hybrid engines switch on.
func (d *Dense) Density() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(d.Count()) / float64(d.n)
}

// ForEach visits every active vertex in ascending order using word-at-a-time
// scanning with trailing-zero counts — the tzcnt technique the paper cites
// for searching 64 vertices per instruction.
func (d *Dense) ForEach(fn func(v uint32)) {
	for wi, w := range d.words {
		base := uint32(wi) << 6
		for w != 0 {
			fn(base + uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// CopyFrom overwrites this frontier with the contents of src (same length).
func (d *Dense) CopyFrom(src *Dense) {
	copy(d.words, src.words)
}

// Clone returns an independent copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.n)
	copy(out.words, d.words)
	return out
}

// AppendTo appends the active vertices to buf in ascending order and returns
// the extended slice — ToSparse for callers that recycle one list buffer
// across iterations.
func (d *Dense) AppendTo(buf []uint32) []uint32 {
	for wi, w := range d.words {
		base := uint32(wi) << 6
		for w != 0 {
			buf = append(buf, base+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// ToSparse extracts the active vertices as a sorted list.
func (d *Dense) ToSparse() *Sparse {
	return &Sparse{n: d.n, verts: d.AppendTo(make([]uint32, 0, d.Count()))}
}

// Sparse is a list-of-vertices frontier, efficient when few vertices are
// active (Ligra's sparse representation). Vertices are kept sorted and
// unique.
type Sparse struct {
	verts []uint32
	n     int
}

// NewSparse creates an empty sparse frontier over n vertices.
func NewSparse(n int) *Sparse { return &Sparse{n: n} }

// Len returns the number of vertices the frontier ranges over.
func (s *Sparse) Len() int { return s.n }

// Vertices returns the sorted active list; callers must not modify it.
func (s *Sparse) Vertices() []uint32 { return s.verts }

// Count returns the number of active vertices.
func (s *Sparse) Count() int { return len(s.verts) }

// Empty reports whether no vertex is active.
func (s *Sparse) Empty() bool { return len(s.verts) == 0 }

// Density is the active fraction.
func (s *Sparse) Density() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(len(s.verts)) / float64(s.n)
}

// AddUnsorted appends a vertex without maintaining order; call Normalize
// before reading.
func (s *Sparse) AddUnsorted(v uint32) { s.verts = append(s.verts, v) }

// Normalize sorts and deduplicates the list.
func (s *Sparse) Normalize() {
	if len(s.verts) < 2 {
		return
	}
	sortU32(s.verts)
	out := s.verts[:1]
	for _, v := range s.verts[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	s.verts = out
}

// ToDense converts to the bitmask representation.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.n)
	for _, v := range s.verts {
		d.Add(v)
	}
	return d
}

func sortU32(a []uint32) {
	// Insertion sort for short lists, else a simple bottom-up radix pass
	// (frontiers can be large; avoid O(n^2)).
	if len(a) <= 32 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	buf := make([]uint32, len(a))
	var counts [256]int
	for shift := 0; shift < 32; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, v := range a {
			counts[(v>>shift)&0xFF]++
		}
		sum := 0
		for i := range counts {
			counts[i], sum = sum, sum+counts[i]
		}
		for _, v := range a {
			b := (v >> shift) & 0xFF
			buf[counts[b]] = v
			counts[b]++
		}
		a, buf = buf, a
	}
	// 4 passes: result already back in the original slice.
}
