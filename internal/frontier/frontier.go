// Package frontier provides the active-vertex set representation used by
// the engines: the dense bitmask Grazelle uses (§5 of the paper: one bit per
// vertex, searched a word at a time with the tzcnt idiom). Sparse vertex
// lists are taken from it with AppendTo: by the Ligra baseline, which
// switches between the two by density, and by core's census when the
// frontier fits a list-driven round, except after a bfs or cc list-driven
// round, whose Vertex phase builds the list itself.
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

// AppendTo appends the active vertices to buf in ascending order and returns
// the extended slice; callers may recycle one list buffer across iterations.
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
