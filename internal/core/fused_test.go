package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
)

// unfused wraps a program while hiding its Fused implementation, forcing
// the engines down the generic Message/Combine path.
type unfused struct{ apps.Program }

// MonotoneMin forwards the wrapped program's trait: hiding the fused kind
// must not also change which schedule the run takes.
func (u unfused) MonotoneMin() bool { return apps.IsMonotoneMin(u.Program) }

func TestKindOfResolution(t *testing.T) {
	g := gen.ErdosRenyi(10, 30, 1)
	cases := []struct {
		p    apps.Program
		want apps.FusedKind
	}{
		{apps.NewPageRank(g), apps.FusedRankSum},
		{apps.NewWeightedRank(gen.AddUniformWeights(g, 2)), apps.FusedRankSum},
		{apps.NewConnComp(), apps.FusedMinProp},
		{apps.NewConnCompWriteIntense(), apps.FusedMinProp},
		{apps.NewBFS(0), apps.FusedMinSrc},
		{apps.NewSSSP(0), apps.FusedMinPropPlusW},
		{unfused{apps.NewPageRank(g)}, apps.FusedNone},
	}
	for _, c := range cases {
		if k, _ := apps.KindOf(c.p); k != c.want {
			t.Errorf("%T: KindOf = %v, want %v", c.p, k, c.want)
		}
		if c.want == apps.FusedMinProp && c.p.Identity() != ^uint64(0) {
			t.Errorf("%+v: Identity = %#x; the chunk walk's dead lanes read ^0", c.p, c.p.Identity())
		}
		if (c.want == apps.FusedMinProp || c.want == apps.FusedMinSrc) && c.p.Identity() != kindIdentity {
			t.Errorf("%+v: Identity = %#x; selectBody resets accum to %#x", c.p, c.p.Identity(), kindIdentity)
		}
	}
	if _, scale := apps.KindOf(apps.NewPageRank(g)); len(scale) != g.NumVertices {
		t.Error("PageRank fused scale has wrong length")
	}
}

// TestFusedMatchesGenericExactly runs every application through both the
// fused kernels and the generic fallback (via the unfused wrapper) on every
// engine variant, demanding bit-identical results — the contract that the
// fused operators are pure specializations of Combine∘Message.
func TestFusedMatchesGenericExactly(t *testing.T) {
	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 11)
	wg := gen.AddUniformWeights(g, 12)
	cg := BuildGraph(g)
	wcg := BuildGraph(wg)

	type cse struct {
		name    string
		cg      *Graph
		mk      func() apps.Program
		maxIter int
	}
	cases := []cse{
		{"PageRank", cg, func() apps.Program { return apps.NewPageRank(g) }, 6},
		// The one rank sum whose Apply is not PageRank's: the push and
		// traditional kernels merge it through the same fused add.
		{"PPR", cg, func() apps.Program { return apps.NewPersonalizedPageRank(g, 3) }, 6},
		{"WeightedRank", wcg, func() apps.Program { return apps.NewWeightedRank(wg) }, 6},
		{"CC", cg, func() apps.Program { return apps.NewConnComp() }, 1 << 20},
		{"CC-WI", cg, func() apps.Program { return apps.NewConnCompWriteIntense() }, 1 << 20},
		{"BFS", cg, func() apps.Program { return apps.NewBFS(0) }, 1 << 20},
		{"SSSP", wcg, func() apps.Program { return apps.NewSSSP(0) }, 1 << 20},
	}
	// Every variant is deterministic at any worker count: scheduler-aware
	// pull merges in chunk-id order; traditional pull peels chunk-boundary
	// destination runs into fixed-order merge slots (interior runs have a
	// single writer in the destination-sorted layout); push routes
	// order-sensitive programs through the ordered scatter buffer. So the
	// fused-vs-generic comparison runs multi-worker everywhere — no 1-worker
	// pins.
	opts := []Options{
		{Workers: 2},
		{Workers: 2, Scalar: true},
		{Workers: 2, Variant: PullTraditional},
		{Workers: 2, Mode: EnginePushOnly},
		{Workers: 2, Mode: EnginePushOnly, Scalar: true},
	}
	for _, c := range cases {
		for _, opt := range opts {
			t.Run(c.name+"/"+optName(opt), func(t *testing.T) {
				r := NewRunner(c.cg, opt)
				defer r.Close()
				fused := Run(r, c.mk(), c.maxIter)
				generic := Run(r, unfused{c.mk()}, c.maxIter)
				if fused.Iterations != generic.Iterations {
					t.Fatalf("iteration counts differ: %d vs %d", fused.Iterations, generic.Iterations)
				}
				for v := range fused.Props {
					if fused.Props[v] != generic.Props[v] {
						t.Fatalf("prop[%d]: fused %#x != generic %#x", v, fused.Props[v], generic.Props[v])
					}
				}
			})
		}
	}
}

// TestStepHelpersMatchDefinition cross-checks the fused operator against
// Combine∘Message directly, for every registered app built as a query builds
// it (Entry.New on a version's layouts): a fused kind's inlined arms, and the
// program's own calls for the kinds the engine does not recognize (kcore, lp,
// tc). combine is checked on edge-case lanes too — the CAS updates, the
// transition flushes and both merge folds go through it — and so is the apply
// step of selectBody (selectStep) against the program's Apply.
func TestStepHelpersMatchDefinition(t *testing.T) {
	g := gen.AddUniformWeights(gen.ErdosRenyi(40, 200, 3), 4)
	cg := BuildGraph(g)
	rng := rand.New(rand.NewSource(5))
	props := make([]uint64, g.NumVertices)
	for _, ent := range apps.All() {
		p, err := ent.New(cg, ent.Normalize(apps.Params{Root: 1}))
		if err != nil {
			t.Fatalf("%s: %v", ent.Name, err)
		}
		p.InitProps(props)
		p.PreIteration(props)
		fz := fuseFor(p, p.Weighted())
		acc := p.Identity()
		for n := uint64(0); n < 20; n++ {
			w := float32(n%7) + 0.5
			wantMsg := p.Message(props[n], uint32(n), w)
			if got := fz.stepMsg(props, n, w); got != wantMsg {
				t.Errorf("%s: stepMsg(%d) = %#x, want %#x", ent.Name, n, got, wantMsg)
			}
			want := p.Combine(acc, wantMsg)
			if got := fz.step(props, acc, n, w); got != want {
				t.Errorf("%s: step(%d) = %#x, want %#x", ent.Name, n, got, want)
			}
			if got := fz.stepVal(acc, props[n], n, w); got != want {
				t.Errorf("%s: stepVal(%d) = %#x, want %#x", ent.Name, n, got, want)
			}
			acc = want
		}
		// step4 over a full vector equals four chained steps.
		weights := []float32{1.5, 2.5, 0.5, 3.25}
		accA := p.Identity()
		for i, n := range []uint64{3, 9, 9, 14} {
			accA = p.Combine(accA, p.Message(props[n], uint32(n), weights[i]))
		}
		// A rank sum and a min-prop program have no arm of their own in
		// step4 (both pull in pullSpanBody) and take the generic one.
		if accB := fz.step4(props, p.Identity(), 3, 9, 9, 14, 0, weights); accA != accB {
			t.Errorf("%s: step4 = %#x, want %#x", ent.Name, accB, accA)
		}
		// Every ordered pair of the edge-case lanes (identity, 0, +Inf, a
		// live property, each paired with itself too), then random pairs.
		lanes := []uint64{p.Identity(), 0, math.Float64bits(math.Inf(1)), props[1], acc, math.Float64bits(1)}
		for _, a := range lanes {
			for _, b := range lanes {
				if got, want := fz.combine(a, b), p.Combine(a, b); got != want {
					t.Errorf("%s: combine(%#x, %#x) = %#x, want %#x", ent.Name, a, b, got, want)
				}
			}
		}
		for range 256 {
			a, b := rng.Uint64(), rng.Uint64()
			if got, want := fz.combine(a, b), p.Combine(a, b); got != want {
				t.Errorf("%s: combine(%#x, %#x) = %#x, want %#x", ent.Name, a, b, got, want)
			}
		}
		// selectBody's lane step on every ordered pair of Identity, 0, +Inf and
		// a live lane, then on random pairs.
		if fz.kind != apps.FusedMinProp && fz.kind != apps.FusedMinSrc {
			continue
		}
		once := fz.kind == apps.FusedMinSrc
		checkApply := func(old, agg uint64) {
			gotV, gotC := selectStep(once, old, agg)
			if wantV, wantC := p.Apply(old, agg, 1); gotV != wantV || gotC != wantC {
				t.Errorf("%s: selectStep(%#x, %#x) = (%#x, %t), Apply says (%#x, %t)",
					ent.Name, old, agg, gotV, gotC, wantV, wantC)
			}
		}
		for _, old := range lanes[:4] {
			for _, agg := range lanes[:4] {
				checkApply(old, agg)
			}
		}
		for range 256 {
			checkApply(rng.Uint64(), rng.Uint64())
		}
	}
}
