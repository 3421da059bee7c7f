package sched

// MergeBuffer is the scheduler-aware interface's companion structure (§3):
// one slot per chunk of iterations, each holding the last destination vertex
// the chunk touched and the partially-aggregated value computed for it.
// Because every chunk owns a distinct slot, FinishChunk needs no
// synchronization; a single thread folds the buffer after the barrier
// (Listing 6). With static chunking the buffer is allocated once and reused
// across iterations.
type MergeBuffer struct {
	dest  []uint32
	value []uint64
	used  []bool
}

// NewMergeBuffer allocates a buffer with capacity for the given chunk count.
func NewMergeBuffer(chunks int) *MergeBuffer {
	return &MergeBuffer{
		dest:  make([]uint32, chunks),
		value: make([]uint64, chunks),
		used:  make([]bool, chunks),
	}
}

// Grow ensures capacity for at least chunks slots, reusing existing storage
// when possible (the §3 "Discussion" case of a runtime creating more
// chunks).
func (b *MergeBuffer) Grow(chunks int) {
	if chunks <= len(b.used) {
		return
	}
	b.dest = append(make([]uint32, 0, chunks), b.dest...)[:chunks]
	b.value = append(make([]uint64, 0, chunks), b.value...)[:chunks]
	b.used = append(make([]bool, 0, chunks), b.used...)[:chunks]
}

// Save records chunk chunkID's trailing partial aggregate (Listing 5). Each
// chunk writes only its own slot, so concurrent Saves with distinct ids are
// race-free.
func (b *MergeBuffer) Save(chunkID int, dest uint32, value uint64) {
	b.dest[chunkID] = dest
	b.value[chunkID] = value
	b.used[chunkID] = true
}

// Merge folds every used slot through combine (Listing 6) and clears the
// buffer. It returns the number of slots folded. combine receives the
// destination vertex and the partial value; it is the caller's aggregation
// operator applied against shared memory — safe because Merge runs after
// the parallel section.
func (b *MergeBuffer) Merge(combine func(dest uint32, value uint64)) int {
	n := 0
	for i, u := range b.used {
		if !u {
			continue
		}
		combine(b.dest[i], b.value[i])
		b.used[i] = false
		n++
	}
	return n
}

// Reset clears all slots without folding them.
func (b *MergeBuffer) Reset() {
	for i := range b.used {
		b.used[i] = false
	}
}

// Contribution is one scattered (destination, value) pair produced by a
// chunk whose writes do not land on a single run of destinations.
type Contribution struct {
	Dst uint32
	Val uint64
}

// ScatterBuffer is the merge buffer's scatter-shaped sibling: one slot per
// chunk holding an ordered list of (destination, value) contributions
// instead of a single trailing aggregate. A push-style loop whose combine
// operator is order-sensitive (floating-point addition) appends its
// contributions here in iteration order and a single thread folds the slots
// in chunk-id order after the barrier, making the result deterministic for
// any worker count — the same fixed-order contract the merge buffer gives
// the pull engine. Slot storage is reused across phases.
type ScatterBuffer struct {
	slots [][]Contribution
}

// NewScatterBuffer allocates a buffer with capacity for the given chunk
// count.
func NewScatterBuffer(chunks int) *ScatterBuffer {
	return &ScatterBuffer{slots: make([][]Contribution, chunks)}
}

// Grow ensures capacity for at least chunks slots.
func (b *ScatterBuffer) Grow(chunks int) {
	for len(b.slots) < chunks {
		b.slots = append(b.slots, nil)
	}
}

// Take returns chunk chunkID's reusable contribution slice, emptied. The
// chunk appends its contributions and hands the slice back through Save.
func (b *ScatterBuffer) Take(chunkID int) []Contribution {
	s := b.slots[chunkID]
	b.slots[chunkID] = nil
	return s[:0]
}

// Save stores chunk chunkID's contribution list. Each chunk writes only its
// own slot, so concurrent Saves with distinct ids are race-free.
func (b *ScatterBuffer) Save(chunkID int, entries []Contribution) {
	b.slots[chunkID] = entries
}

// Merge folds every contribution through combine, slots in chunk-id order
// and entries in append order, then empties the slots (retaining their
// storage). It returns the number of contributions folded.
func (b *ScatterBuffer) Merge(combine func(dst uint32, value uint64)) int {
	n := 0
	for i, entries := range b.slots {
		for _, e := range entries {
			combine(e.Dst, e.Val)
		}
		n += len(entries)
		b.slots[i] = entries[:0]
	}
	return n
}
