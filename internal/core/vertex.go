package core

import (
	"math"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/vec"
)

// The Vertex phase: apply each vertex's aggregate, reset its accumulator and
// build the next frontier (and the converged set, for a program that tracks
// one). One driver, runVertex, serves the dense round — every vertex,
// statically scheduled (§5: the work is regular enough that load balancing is
// not a problem) — and the list-driven round, which visits only the touched
// destinations through listSelect (selectBody's lane step or Apply, a vertex
// at a time). A dense round runs one of three bodies:
//
//   - selectBody, for the two min kinds (cc's FusedMinProp, bfs's
//     FusedMinSrc): a kind fixes Apply as well as the Edge operator
//     (apps.FusedKind), so the body inlines it as a compare/select per lane,
//     with no indirect call;
//   - rankBody, for a rank sum (FusedRankSum: pr, ppr, wpr), Scalar runs
//     included: the program's per-iteration apps.RankStep inlined, and in
//     the same pass, when the run's pull gathers it, the contrib array the
//     next sweep reads;
//   - applyBody, the program's own Apply: every other kind, every unfused
//     program, and every other Scalar run (the non-vectorized baseline of
//     Fig 10).
//
// All of them collect changed-vertex bits a 64-vertex word at a time
// (wordBits), so the only atomic in the phase is the OR into a word a
// neighbouring range shares. The lanes, the frontiers and the Record counters
// are the same bits whichever body runs.

// RunVertex runs a dense Vertex phase and swaps the next frontier in.
func RunVertex(r *ExecContext, p apps.Program) { runVertex(r, p, false, false) }

// runVertex runs the Vertex phase and publishes the next frontier. A dense
// round visits every vertex; a list-driven round (list) only its touched
// destinations, r.touchedList, as one plain listChunk call when inline. The
// skip is exact: untouched vertices hold Identity, and Apply(old, Identity,
// v) == (old, false) for every frontier-driven program (the registry
// conformance suite holds them to it). It returns the chunks it cut.
func runVertex(r *ExecContext, p apps.Program, list, inline bool) int {
	if list && r.lr.sel {
		for i := range r.nextParts {
			r.nextParts[i] = census{list: r.nextParts[i].list[:0]}
		}
		r.carried = true
	}
	r.next.Clear()
	chunks, fresh := 1, false
	switch {
	case list && inline:
		r.listChunk(r.touchedList, sched.Range{Hi: len(r.touchedList)}, 0, 0, false, true)
	case list:
		chunks = r.pool.StaticFor(len(r.touchedList), func(rg sched.Range, tid int) {
			if !r.aborted() {
				r.listChunk(r.touchedList, rg, 0, tid, false, false)
			}
		})
	default:
		var body func(rg sched.Range, chunkID, tid, node int)
		body, fresh = vertexBodyFor(r, p)
		chunks = r.pool.StaticFor(r.g.N, func(rg sched.Range, tid int) {
			if !r.aborted() {
				r.runChunk(nil, body, rg, 0, tid, 0)
			}
		})
	}
	r.publishFrontier()
	r.contribCurrent = fresh
	return chunks
}

// vertexBodyFor returns p's dense Vertex-phase body — selectBody, rankBody or
// applyBody — and whether it leaves contrib current for the next pull. It
// snapshots the next-frontier words, which swap on publish, so it is rebuilt
// every round.
func vertexBodyFor(r *ExecContext, p apps.Program) (body func(rg sched.Range, chunkID, tid, node int), fresh bool) {
	if sel, once := selects(r, p); sel {
		return selectBody(r, p, once), false
	}
	if step, scale, ok := rankStep(p); ok {
		fresh = r.gathersContrib(p)
		return rankBody(r, p, step, scale, fresh), fresh
	}
	return applyBody(r, p), false
}

// rankStep resolves the iteration's rank step and the per-source scale of a
// FusedRankSum program that is an apps.RankStepper, or reports false.
func rankStep(p apps.Program) (step apps.RankStep, scale []float64, ok bool) {
	kind, scale := apps.KindOf(p)
	if kind != apps.FusedRankSum {
		return step, nil, false
	}
	step, ok = apps.RankStepOf(p)
	return step, scale, ok
}

// selects reports whether p's Vertex phase runs selectBody — a min kind
// outside a Scalar run — and whether its lane step is applyOnce (bfs) rather
// than applyMin (cc).
func selects(r *ExecContext, p apps.Program) (sel, once bool) {
	kind, _ := apps.KindOf(p)
	return !r.opt.Scalar && (kind == apps.FusedMinProp || kind == apps.FusedMinSrc), kind == apps.FusedMinSrc
}

// applyMin is FusedMinProp's Apply: keep the smaller label.
func applyMin(old, agg uint64) (uint64, bool) { return min(old, agg), agg < old }

// applyOnce is FusedMinSrc's Apply: adopt a parent exactly once.
func applyOnce(old, agg uint64) (uint64, bool) {
	if old == apps.NoParent && agg != apps.NoParent {
		return agg, true
	}
	return old, false
}

// selectStep is selectBody's lane step.
func selectStep(once bool, old, agg uint64) (uint64, bool) {
	if once {
		return applyOnce(old, agg)
	}
	return applyMin(old, agg)
}

// kindIdentity is the Identity of both min kinds (cc's maximal label, bfs's
// NoParent): the value selectBody resets accum to and an idle lane holds.
const kindIdentity = ^uint64(0)

// selectBody is the dense Vertex phase of the two min kinds: per 4-lane
// group, the idle-group skip, then applyOnce or applyMin on every lane (one
// branch on once per group), the props store, the accum reset and a
// changed-lane mask.
func selectBody(r *ExecContext, p apps.Program, once bool) func(rg sched.Range, chunkID, tid, node int) {
	props, accum := r.props, r.accum
	skipIdle := p.UsesFrontier() && !r.opt.AblateFrontierWork
	return func(rg sched.Range, _, tid, _ int) {
		var c perfmodel.Counters
		fb := r.newWordBits(p, nil, rg)
		v := rg.Lo
		for ; v+vec.Lanes <= rg.Hi; v += vec.Lanes {
			a := accum[v : v+vec.Lanes : v+vec.Lanes]
			if skipIdle && a[0]&a[1]&a[2]&a[3] == kindIdentity {
				continue
			}
			o := props[v : v+vec.Lanes : v+vec.Lanes]
			// Each arm stores its own lanes: a draft that merged the
			// two arms' lanes before one shared store cost cc's Vertex
			// phase about a fifth (EXPERIMENTS.md, "One Vertex driver,
			// two bodies").
			var m uint64
			if once {
				n0, c0 := applyOnce(o[0], a[0])
				n1, c1 := applyOnce(o[1], a[1])
				n2, c2 := applyOnce(o[2], a[2])
				n3, c3 := applyOnce(o[3], a[3])
				o[0], o[1], o[2], o[3] = n0, n1, n2, n3
				m = laneMask(c0, c1, c2, c3)
			} else {
				n0, c0 := applyMin(o[0], a[0])
				n1, c1 := applyMin(o[1], a[1])
				n2, c2 := applyMin(o[2], a[2])
				n3, c3 := applyMin(o[3], a[3])
				o[0], o[1], o[2], o[3] = n0, n1, n2, n3
				m = laneMask(c0, c1, c2, c3)
			}
			a[0], a[1], a[2], a[3] = kindIdentity, kindIdentity, kindIdentity, kindIdentity
			c.SharedWrites += 2 * vec.Lanes
			if m != 0 {
				fb.addGroup(v, m)
			}
		}
		for ; v < rg.Hi; v++ {
			nv, changed := selectStep(once, props[v], accum[v])
			props[v], accum[v] = nv, kindIdentity
			c.SharedWrites += 2
			if changed {
				fb.add(v>>6, 1<<(uint(v)&63))
			}
		}
		fb.flush()
		r.vertexRec.Record(tid, c)
	}
}

// rankBody is the dense Vertex phase of a rank sum, one vertex at a time:
// the new rank from the iteration's step (the body PageRank.Apply calls, so
// the lanes are Apply's bits) into props, +0 (FusedRankSum's Identity) into
// accum and, when writeContrib, rank·scale[v] into contrib — each product
// rounded on its own, refreshContrib's number — so the next pull finds
// contrib current and skips refreshContrib's pass. Apply reports every
// vertex changed, so the range's next-frontier bits are set whole words at
// a time. There is no 4-lane step: this loop is also the Scalar baseline's.
//
// vertexBodyFor sets writeContrib only when the context's Edge-Pull gathers
// contrib (gathersContrib); the cells whose pulls read props instead (Scalar,
// the traditional variants, push-only) run the loop without the store.
//
// rankBody is kept out of line: inlined into vertexBodyFor, its closure was
// compiled without Rank and math.Float64bits inlined into the loop (Go 1.24),
// a call per vertex that tripled the loop's cost.
//
//go:noinline
func rankBody(r *ExecContext, p apps.Program, step apps.RankStep, scale []float64, writeContrib bool) func(rg sched.Range, chunkID, tid, node int) {
	props, accum := r.props, r.accum
	var contrib []float64
	if writeContrib {
		contrib = r.contribArray()
	}
	return func(rg sched.Range, _, tid, _ int) {
		lo, hi := rg.Lo, rg.Hi
		a := accum[lo:hi]
		o := props[lo:hi]
		o = o[:len(a)]
		if writeContrib {
			c, sc := contrib[lo:hi], scale[lo:hi]
			c, sc = c[:len(a)], sc[:len(a)]
			for i, agg := range a {
				rank := step.Rank(agg, uint32(lo+i))
				o[i], a[i] = math.Float64bits(rank), 0
				c[i] = float64(rank * sc[i])
			}
		} else {
			for i, agg := range a {
				o[i], a[i] = math.Float64bits(step.Rank(agg, uint32(lo+i))), 0
			}
		}
		fb := r.newWordBits(p, nil, rg)
		fb.addRange(lo, hi)
		fb.flush()
		r.vertexRec.Record(tid, perfmodel.Counters{SharedWrites: 2 * uint64(hi-lo)})
	}
}

// applyBody is the dense Vertex phase through the program's own Apply: four
// lanes per step with one bounds check per vector (§6.2 found this phase
// memory-bandwidth-bound; with an indirect Apply per lane it is call-bound
// instead, which is why the min kinds run selectBody and the rank sums
// rankBody), or one vertex at a time in a Scalar run.
func applyBody(r *ExecContext, p apps.Program) func(rg sched.Range, chunkID, tid, node int) {
	props, accum := r.props, r.accum
	identity := p.Identity()
	scalar := r.opt.Scalar
	// A frontier-driven program leaves a vertex whose aggregate is Identity
	// exactly as it is, so a 4-lane group nothing reached is skipped whole:
	// no Apply, no stores, no counter. AblateFrontierWork restores the
	// paper's every-vertex Vertex phase.
	skipIdle := p.UsesFrontier() && !r.opt.AblateFrontierWork
	return func(rg sched.Range, _, tid, _ int) {
		var c perfmodel.Counters
		fb := r.newWordBits(p, nil, rg)
		apply := func(v uint32) {
			nv, changed := p.Apply(props[v], accum[v], v)
			props[v], accum[v] = nv, identity
			c.SharedWrites += 2
			if changed {
				fb.add(int(v>>6), 1<<(v&63))
			}
		}
		v := rg.Lo
		for ; !scalar && v+vec.Lanes <= rg.Hi; v += vec.Lanes {
			agg := vec.Load(accum, v)
			if skipIdle && agg[0] == identity && agg[1] == identity &&
				agg[2] == identity && agg[3] == identity {
				continue
			}
			old := vec.Load(props, v)
			var m uint64
			for lane := 0; lane < vec.Lanes; lane++ {
				nv, changed := p.Apply(old[lane], agg[lane], uint32(v+lane))
				old[lane] = nv
				if changed {
					m |= 1 << lane
				}
			}
			vec.Store(props, v, old)
			vec.Store(accum, v, vec.Broadcast(identity))
			c.SharedWrites += 2 * vec.Lanes
			if m != 0 {
				fb.addGroup(v, m)
			}
		}
		for ; v < rg.Hi; v++ {
			apply(uint32(v))
		}
		fb.flush()
		r.vertexRec.Record(tid, c)
	}
}

// listSelect is a list-driven round's Vertex phase over list's entries rg:
// selectBody's lane step for the min kinds, which also take the next census
// into part tid (StaticFor's tid-th range) — each vertex activated, with its
// out-degree — or the program's own Apply. It returns the counters.
func (r *ExecContext) listSelect(list []uint32, rg sched.Range, tid int) perfmodel.Counters {
	l, props, accum := &r.lr, r.props, r.accum
	fb := r.newWordBits(l.p, list, rg)
	if l.sel {
		part := &r.nextParts[tid]
		next, outEdges := part.list, 0
		for _, v := range list[rg.Lo:rg.Hi] {
			nv, changed := selectStep(l.once, props[v], accum[v])
			props[v], accum[v] = nv, kindIdentity
			if changed {
				fb.add(int(v>>6), 1<<(v&63))
				next = append(next, v)
				outEdges += int(l.deg[v])
			}
		}
		part.list, part.outEdges = next, outEdges
	} else {
		for _, v := range list[rg.Lo:rg.Hi] {
			nv, changed := l.p.Apply(props[v], accum[v], v)
			props[v], accum[v] = nv, l.identity
			if changed {
				fb.add(int(v>>6), 1<<(v&63))
			}
		}
	}
	fb.flush()
	return perfmodel.Counters{SharedWrites: 2 * uint64(rg.Hi-rg.Lo)}
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

// addRange adds every vertex of [lo, hi), one word at a time.
func (fb *wordBits) addRange(lo, hi int) {
	for v := lo; v < hi; {
		end := min(hi, (v|63)+1)
		fb.add(v>>6, ^uint64(0)>>(64-uint(end-v))<<(uint(v)&63))
		v = end
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
