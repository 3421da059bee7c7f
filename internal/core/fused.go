package core

import (
	"math"

	"repro/internal/apps"
)

// fuse is the per-phase resolved kernel specialization (see
// apps.FusedKind): the engines run the paper's aggregation operators as
// inlined code instead of per-edge indirect calls, mirroring Grazelle's
// hand-specialized per-application assembly kernels, and call the program p
// only for a kind they do not recognize.
type fuse struct {
	p        apps.Program
	kind     apps.FusedKind
	scale    []float64
	weighted bool
	// ordered marks combine operators whose result depends on evaluation
	// order — floating-point addition (FusedRankSum) and, conservatively,
	// any program the engine cannot classify (FusedNone). Kernels that
	// scatter writes across destinations route ordered contributions
	// through a fixed-order buffer so results are bit-identical at any
	// worker count; min-style operators are order- and grouping-independent
	// and keep the direct CAS path.
	ordered bool
}

func fuseFor(p apps.Program, weighted bool) fuse {
	k, s := apps.KindOf(p)
	return fuse{
		p:        p,
		kind:     k,
		scale:    s,
		weighted: weighted,
		ordered:  k == apps.FusedNone || k == apps.FusedRankSum,
	}
}

// step computes Combine(acc, Message(props[n], n, w)) through the fused
// operator. The generic fallback preserves exact Program semantics for
// kinds the engine does not recognize.
func (fz *fuse) step(props []uint64, acc, n uint64, w float32) uint64 {
	switch fz.kind {
	case apps.FusedRankSum:
		// The float64 conversions round each product on its own: the spec
		// lets a compiler fuse x*y + z into one rounding (GOAMD64=v3 and
		// arm64 do), which would make two builds of one tree disagree in the
		// last bit.
		m := float64(math.Float64frombits(props[n]) * fz.scale[n])
		if fz.weighted {
			m = float64(m * float64(w))
		}
		return math.Float64bits(math.Float64frombits(acc) + m)
	case apps.FusedMinProp:
		if v := props[n]; v < acc {
			return v
		}
		return acc
	case apps.FusedMinSrc:
		if n < acc {
			return n
		}
		return acc
	case apps.FusedMinPropPlusW:
		if d := math.Float64frombits(props[n]) + float64(w); d < math.Float64frombits(acc) {
			return math.Float64bits(d)
		}
		return acc
	default:
		return fz.p.Combine(acc, fz.p.Message(props[n], uint32(n), w))
	}
}

// stepVal is step with the source's value supplied by the caller instead of
// read from props[n] — the in-place pull's window lanes, whose value is the
// fresher of the property and the flushed aggregate.
func (fz *fuse) stepVal(acc, srcVal, n uint64, w float32) uint64 {
	switch fz.kind {
	case apps.FusedMinProp:
		if srcVal < acc {
			return srcVal
		}
		return acc
	case apps.FusedMinPropPlusW:
		if d := math.Float64frombits(srcVal) + float64(w); d < math.Float64frombits(acc) {
			return math.Float64bits(d)
		}
		return acc
	default:
		return fz.p.Combine(acc, fz.p.Message(srcVal, uint32(n), w))
	}
}

// combine computes Combine(a, b) through the fused operator: the transition
// flush, the merge folds and the CAS updates pay an inlined compare or add
// per partial aggregate instead of an indirect call through the program (on a
// mesh every vector ends a destination, so the flush is per-vector work).
func (fz *fuse) combine(a, b uint64) uint64 {
	switch fz.kind {
	case apps.FusedRankSum:
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	case apps.FusedMinProp, apps.FusedMinSrc:
		if b < a {
			return b
		}
		return a
	case apps.FusedMinPropPlusW:
		if math.Float64frombits(b) < math.Float64frombits(a) {
			return b
		}
		return a
	default:
		return fz.p.Combine(a, b)
	}
}

// step4 folds a full 4-lane vector (all lanes valid) into acc — the fused
// body of the full-vector fast path, with the kind switch hoisted off the
// per-lane work. Only frontier programs reach it (a frontier-blind one pulls
// by run span, pullSpanBody), so it has no rank-sum arm.
func (fz *fuse) step4(props []uint64, acc, n0, n1, n2, n3 uint64, wbase int, weights []float32) uint64 {
	switch fz.kind {
	case apps.FusedMinProp:
		if v := props[n0]; v < acc {
			acc = v
		}
		if v := props[n1]; v < acc {
			acc = v
		}
		if v := props[n2]; v < acc {
			acc = v
		}
		if v := props[n3]; v < acc {
			acc = v
		}
		return acc
	case apps.FusedMinSrc:
		if n0 < acc {
			acc = n0
		}
		if n1 < acc {
			acc = n1
		}
		if n2 < acc {
			acc = n2
		}
		if n3 < acc {
			acc = n3
		}
		return acc
	case apps.FusedMinPropPlusW:
		a := math.Float64frombits(acc)
		if d := math.Float64frombits(props[n0]) + float64(weights[wbase]); d < a {
			a = d
		}
		if d := math.Float64frombits(props[n1]) + float64(weights[wbase+1]); d < a {
			a = d
		}
		if d := math.Float64frombits(props[n2]) + float64(weights[wbase+2]); d < a {
			a = d
		}
		if d := math.Float64frombits(props[n3]) + float64(weights[wbase+3]); d < a {
			a = d
		}
		return math.Float64bits(a)
	default:
		var w0, w1, w2, w3 float32
		if weights != nil {
			w0, w1, w2, w3 = weights[wbase], weights[wbase+1], weights[wbase+2], weights[wbase+3]
		}
		acc = fz.p.Combine(acc, fz.p.Message(props[n0], uint32(n0), w0))
		acc = fz.p.Combine(acc, fz.p.Message(props[n1], uint32(n1), w1))
		acc = fz.p.Combine(acc, fz.p.Message(props[n2], uint32(n2), w2))
		acc = fz.p.Combine(acc, fz.p.Message(props[n3], uint32(n3), w3))
		return acc
	}
}

// stepMsg computes Message(props[n], n, w) alone, for the push and
// traditional kernels whose combine happens at the destination.
func (fz *fuse) stepMsg(props []uint64, n uint64, w float32) uint64 {
	switch fz.kind {
	case apps.FusedRankSum:
		// Rounded per product, as in step: a caller may add the message next.
		m := float64(math.Float64frombits(props[n]) * fz.scale[n])
		if fz.weighted {
			m = float64(m * float64(w))
		}
		return math.Float64bits(m)
	case apps.FusedMinProp:
		return props[n]
	case apps.FusedMinSrc:
		return n
	case apps.FusedMinPropPlusW:
		return math.Float64bits(math.Float64frombits(props[n]) + float64(w))
	default:
		return fz.p.Message(props[n], uint32(n), w)
	}
}
