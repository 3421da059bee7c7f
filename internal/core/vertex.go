package core

import (
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
)

// The Vertex phase by fused kind. A kind fixes Apply as well as the Edge
// operator (apps.FusedKind), so for cc (FusedMinProp) and bfs (FusedMinSrc)
// the phase runs a loop with Apply inlined — no indirect call per lane — and
// writes each 64-vertex word of next and conv once per range instead of one
// atomic OR per changed group. Every other kind, and every Scalar run (the
// non-vectorized baseline of Fig 10), keeps the program's own Apply:
// vertexBody, and sparseVertexBody's scalar loop. The lanes, the frontiers
// and the Record counters are the same bits either way.

// applyMin is FusedMinProp's Apply: keep the smaller label.
func applyMin(old, agg uint64) (uint64, bool) { return min(old, agg), agg < old }

// applyOnce is FusedMinSrc's Apply: adopt a parent exactly once.
func applyOnce(old, agg uint64) (uint64, bool) {
	if old == apps.NoParent && agg != apps.NoParent {
		return agg, true
	}
	return old, false
}

// kindIdentity is the Identity of both kinds with a Vertex arm (cc's maximal
// label, bfs's NoParent): the value the arms reset accum to and an idle lane
// holds.
const kindIdentity = ^uint64(0)

// vertexPhaseBody returns the body of a dense Vertex phase (RunVertex): p's
// fused-kind arm, or vertexBody.
func vertexPhaseBody(r *ExecContext, p apps.Program) func(rg sched.Range, tid int) {
	if arm := vertexArm(r, p, nil); arm != nil {
		return arm
	}
	return vertexBody(r, p)
}

// vertexArm returns the Vertex-phase body of p's fused kind (the kind fuseFor
// resolves) — vertexMin or vertexOnce — or nil when the phase runs the
// program's own Apply. With list nil, rg is a range of vertices; otherwise rg
// indexes list, the list-driven round's ascending touched vertices (an empty
// list is an empty range either way).
func vertexArm(r *ExecContext, p apps.Program, list []uint32) func(rg sched.Range, tid int) {
	if r.opt.Scalar {
		return nil
	}
	switch kind, _ := apps.KindOf(p); kind {
	case apps.FusedMinProp:
		return vertexMin(r, p, list)
	case apps.FusedMinSrc:
		return vertexOnce(r, p, list)
	}
	return nil
}

// vertexMin is FusedMinProp's Vertex arm: per 4-lane group, the idle-group
// skip, then an unsigned compare/select per lane, the props store, the accum
// reset and a changed-lane mask.
func vertexMin(r *ExecContext, p apps.Program, list []uint32) func(rg sched.Range, tid int) {
	props, accum := r.props, r.accum
	skipIdle := p.UsesFrontier() && !r.opt.AblateFrontierWork
	return func(rg sched.Range, tid int) {
		var c perfmodel.Counters
		start := r.startVertexRange()
		fb := r.newWordBits(p, list, rg)
		if list != nil {
			for _, v := range list[rg.Lo:rg.Hi] {
				nv, changed := applyMin(props[v], accum[v])
				props[v], accum[v] = nv, kindIdentity
				if changed {
					fb.add(int(v>>6), 1<<(v&63))
				}
			}
			c.SharedWrites += 2 * uint64(rg.Hi-rg.Lo)
		} else {
			v := rg.Lo
			for ; v+vec.Lanes <= rg.Hi; v += vec.Lanes {
				a := accum[v : v+vec.Lanes : v+vec.Lanes]
				if skipIdle && a[0]&a[1]&a[2]&a[3] == kindIdentity {
					continue
				}
				o := props[v : v+vec.Lanes : v+vec.Lanes]
				n0, c0 := applyMin(o[0], a[0])
				n1, c1 := applyMin(o[1], a[1])
				n2, c2 := applyMin(o[2], a[2])
				n3, c3 := applyMin(o[3], a[3])
				o[0], o[1], o[2], o[3] = n0, n1, n2, n3
				a[0], a[1], a[2], a[3] = kindIdentity, kindIdentity, kindIdentity, kindIdentity
				c.SharedWrites += 2 * vec.Lanes
				if m := laneMask(c0, c1, c2, c3); m != 0 {
					fb.addGroup(v, m)
				}
			}
			for ; v < rg.Hi; v++ {
				nv, changed := applyMin(props[v], accum[v])
				props[v], accum[v] = nv, kindIdentity
				c.SharedWrites += 2
				if changed {
					fb.add(v>>6, 1<<(uint(v)&63))
				}
			}
		}
		fb.flush()
		r.endVertexRange(tid, c, start)
	}
}

// vertexOnce is FusedMinSrc's Vertex arm: vertexMin's loop with a lane that
// changes exactly once, old == NoParent && agg != NoParent.
func vertexOnce(r *ExecContext, p apps.Program, list []uint32) func(rg sched.Range, tid int) {
	props, accum := r.props, r.accum
	skipIdle := p.UsesFrontier() && !r.opt.AblateFrontierWork
	return func(rg sched.Range, tid int) {
		var c perfmodel.Counters
		start := r.startVertexRange()
		fb := r.newWordBits(p, list, rg)
		if list != nil {
			for _, v := range list[rg.Lo:rg.Hi] {
				nv, changed := applyOnce(props[v], accum[v])
				props[v], accum[v] = nv, kindIdentity
				if changed {
					fb.add(int(v>>6), 1<<(v&63))
				}
			}
			c.SharedWrites += 2 * uint64(rg.Hi-rg.Lo)
		} else {
			v := rg.Lo
			for ; v+vec.Lanes <= rg.Hi; v += vec.Lanes {
				a := accum[v : v+vec.Lanes : v+vec.Lanes]
				if skipIdle && a[0]&a[1]&a[2]&a[3] == kindIdentity {
					continue
				}
				o := props[v : v+vec.Lanes : v+vec.Lanes]
				n0, c0 := applyOnce(o[0], a[0])
				n1, c1 := applyOnce(o[1], a[1])
				n2, c2 := applyOnce(o[2], a[2])
				n3, c3 := applyOnce(o[3], a[3])
				o[0], o[1], o[2], o[3] = n0, n1, n2, n3
				a[0], a[1], a[2], a[3] = kindIdentity, kindIdentity, kindIdentity, kindIdentity
				c.SharedWrites += 2 * vec.Lanes
				if m := laneMask(c0, c1, c2, c3); m != 0 {
					fb.addGroup(v, m)
				}
			}
			for ; v < rg.Hi; v++ {
				nv, changed := applyOnce(props[v], accum[v])
				props[v], accum[v] = nv, kindIdentity
				c.SharedWrites += 2
				if changed {
					fb.add(v>>6, 1<<(uint(v)&63))
				}
			}
		}
		fb.flush()
		r.endVertexRange(tid, c, start)
	}
}

// laneMask packs four lanes' changed flags into a 4-bit mask, lane 0 lowest.
func laneMask(c0, c1, c2, c3 bool) uint64 {
	return bit(c0) | bit(c1)<<1 | bit(c2)<<2 | bit(c3)<<3
}

// bit is 1 for true, 0 for false.
func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// startVertexRange reads the clock for a Record run's busy time.
func (r *ExecContext) startVertexRange() time.Time {
	if r.vertexRec == nil {
		return time.Time{}
	}
	return time.Now()
}

// endVertexRange charges a range's counters and busy time to a Record run.
func (r *ExecContext) endVertexRange(tid int, c perfmodel.Counters, start time.Time) {
	if r.vertexRec != nil {
		r.vertexRec.Record(tid, c)
		r.vertexRec.AddBusy(tid, time.Since(start))
	}
}

// wordBits collects one range's changed-vertex bits a 64-vertex word at a
// time and writes each word once into next and (for a program that tracks a
// converged set) conv. The range visits vertices in ascending order, so a
// word is complete when the next one starts. A word no other range writes
// takes a plain OR; only the words at the range's two ends, which a
// neighbouring range may share, take an atomic one.
type wordBits struct {
	next, conv []uint64
	tracksConv bool
	// sharedLo and sharedHi are the end words another range also writes, -1
	// when it has none.
	sharedLo, sharedHi int
	w                  int
	bits               uint64
}

// newWordBits starts a range's wordBits. A range's end word is shared when
// the vertex just outside the range lies in it: the vertex before rg.Lo or
// at rg.Hi (dense), or list's entry there.
func (r *ExecContext) newWordBits(p apps.Program, list []uint32, rg sched.Range) wordBits {
	fb := wordBits{next: r.next.Words(), conv: r.conv.Words(), tracksConv: p.TracksConverged(),
		sharedLo: -1, sharedHi: -1, w: -1}
	if rg.Lo >= rg.Hi {
		return fb
	}
	if list == nil {
		if rg.Lo&63 != 0 {
			fb.sharedLo = rg.Lo >> 6
		}
		if rg.Hi < r.g.N && rg.Hi&63 != 0 {
			fb.sharedHi = (rg.Hi - 1) >> 6
		}
		return fb
	}
	if lo := list[rg.Lo] >> 6; rg.Lo > 0 && list[rg.Lo-1]>>6 == lo {
		fb.sharedLo = int(lo)
	}
	if hi := list[rg.Hi-1] >> 6; rg.Hi < len(list) && list[rg.Hi]>>6 == hi {
		fb.sharedHi = int(hi)
	}
	return fb
}

// add ORs bits into word w, writing the previous word out when w starts a
// new one.
func (fb *wordBits) add(w int, bits uint64) {
	if w != fb.w {
		fb.flush()
		fb.w = w
	}
	fb.bits |= bits
}

// addGroup adds the changed-lane mask of the 4-lane group at vertex v. Lanes
// are consecutive vertices, so the mask shifts into bit position, splitting
// across two words when the group straddles a word boundary.
func (fb *wordBits) addGroup(v int, m uint64) {
	off := uint(v) & 63
	fb.add(v>>6, m<<off)
	if off > 64-vec.Lanes {
		if hi := m >> (64 - off); hi != 0 {
			fb.add(v>>6+1, hi)
		}
	}
}

// flush writes the collected word out.
func (fb *wordBits) flush() {
	if fb.bits == 0 {
		return
	}
	if fb.w == fb.sharedLo || fb.w == fb.sharedHi {
		atomic.OrUint64(&fb.next[fb.w], fb.bits)
		if fb.tracksConv {
			atomic.OrUint64(&fb.conv[fb.w], fb.bits)
		}
	} else {
		fb.next[fb.w] |= fb.bits
		if fb.tracksConv {
			fb.conv[fb.w] |= fb.bits
		}
	}
	fb.bits = 0
}
