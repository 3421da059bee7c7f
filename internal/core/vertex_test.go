package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/frontier"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/vec"
)

// TestWordBits drives the frontier-word writer of the Vertex bodies over
// the ranges a phase cuts — dense ranges as StaticFor splits N at one to
// three workers, vertex by vertex and (rankBody's addRange) whole, ranges of
// a touched list whose neighbouring entries do and do not share a 64-vertex
// word, and an empty range — and checks each range's shared end words, then
// that the ranges' flushes together wrote exactly the changed vertices into
// next and conv.
func TestWordBits(t *testing.T) {
	p := apps.NewBFS(0) // tracks a converged set, so conv is written too
	newEC := func(n int) *ExecContext {
		return &ExecContext{Runner: &Runner{g: &Graph{N: n}}, next: frontier.NewDense(n), conv: frontier.NewDense(n)}
	}
	// checkWords compares next and conv with the set bits of want.
	checkWords := func(t *testing.T, ec *ExecContext, want []uint32) {
		t.Helper()
		exp := frontier.NewDense(ec.g.N)
		for _, v := range want {
			exp.Add(v)
		}
		if !slices.Equal(ec.next.Words(), exp.Words()) || !slices.Equal(ec.conv.Words(), exp.Words()) {
			t.Errorf("next %x, conv %x, want %x", ec.next.Words(), ec.conv.Words(), exp.Words())
		}
	}

	for _, n := range []int{63, 64, 65, 130, 200} {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("dense/N%d/w%d", n, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				var mu sync.Mutex
				var ranges []sched.Range
				pool.StaticFor(n, func(rg sched.Range, _ int) {
					mu.Lock()
					ranges = append(ranges, rg)
					mu.Unlock()
				})
				ec := newEC(n)
				changed := func(v int) bool { return v%3 != 1 }
				var want []uint32
				for _, rg := range ranges {
					fb := ec.newWordBits(p, nil, rg)
					lo, hi := -1, -1
					if rg.Lo > 0 && (rg.Lo-1)>>6 == rg.Lo>>6 {
						lo = rg.Lo >> 6
					}
					if rg.Hi < n && rg.Hi>>6 == (rg.Hi-1)>>6 {
						hi = rg.Hi >> 6
					}
					if fb.sharedLo != lo || fb.sharedHi != hi {
						t.Errorf("%v: shared words %d, %d, want %d, %d", rg, fb.sharedLo, fb.sharedHi, lo, hi)
					}
					// Whole groups as a lane mask, the tail one vertex at a
					// time, as the bodies do; a range may start mid-word.
					v := rg.Lo
					for ; v+vec.Lanes <= rg.Hi; v += vec.Lanes {
						var m uint64
						for lane := range vec.Lanes {
							if changed(v + lane) {
								m |= 1 << lane
							}
						}
						fb.addGroup(v, m)
					}
					for ; v < rg.Hi; v++ {
						if changed(v) {
							fb.add(v>>6, 1<<(uint(v)&63))
						}
					}
					fb.flush()
					for v := rg.Lo; v < rg.Hi; v++ {
						if changed(v) {
							want = append(want, uint32(v))
						}
					}
				}
				checkWords(t, ec, want)
			})
		}
	}

	for _, n := range []int{63, 64, 65, 130, 200} {
		for workers := 1; workers <= 3; workers++ {
			t.Run(fmt.Sprintf("range/N%d/w%d", n, workers), func(t *testing.T) {
				ec := newEC(n)
				per := (n + workers - 1) / workers // StaticFor's split
				var want []uint32
				for lo := 0; lo < n; lo += per {
					rg := sched.Range{Lo: lo, Hi: min(lo+per, n)}
					fb := ec.newWordBits(p, nil, rg)
					fb.addRange(rg.Lo, rg.Hi)
					fb.flush()
					for v := rg.Lo; v < rg.Hi; v++ {
						want = append(want, uint32(v))
					}
				}
				checkWords(t, ec, want)
			})
		}
	}

	t.Run("list", func(t *testing.T) {
		list := []uint32{1, 5, 63, 64, 70, 128, 129, 300}
		ec := newEC(320)
		for _, c := range []struct {
			rg     sched.Range
			lo, hi int
		}{
			{sched.Range{Lo: 0, Hi: 2}, -1, 0}, // 5 and the next entry, 63, share word 0
			{sched.Range{Lo: 2, Hi: 3}, 0, -1}, // 63 shares word 0 with 5; 64 starts word 1
			{sched.Range{Lo: 3, Hi: 5}, -1, -1},
			{sched.Range{Lo: 5, Hi: 6}, -1, 2}, // 128 and 129 share word 2
			{sched.Range{Lo: 6, Hi: 8}, 2, -1},
			{sched.Range{Lo: 8, Hi: 8}, -1, -1}, // empty
		} {
			fb := ec.newWordBits(p, list, c.rg)
			if fb.sharedLo != c.lo || fb.sharedHi != c.hi {
				t.Errorf("%v: shared words %d, %d, want %d, %d", c.rg, fb.sharedLo, fb.sharedHi, c.lo, c.hi)
			}
			for _, v := range list[c.rg.Lo:c.rg.Hi] {
				fb.add(int(v>>6), 1<<(v&63))
			}
			fb.flush()
		}
		checkWords(t, ec, list)
	})

	t.Run("empty", func(t *testing.T) {
		ec := newEC(200)
		fb := ec.newWordBits(p, nil, sched.Range{Lo: 70, Hi: 70})
		if fb.sharedLo != -1 || fb.sharedHi != -1 {
			t.Errorf("empty range: shared words %d, %d, want -1, -1", fb.sharedLo, fb.sharedHi)
		}
		fb.flush()
		checkWords(t, ec, nil)
	})
}

// TestFusedRankStepMatchesApply holds rankBody, as vertexBodyFor builds it
// for pr, wpr and ppr, to the program's Apply bit for bit: the rank it stores
// for every vertex (ppr's root and the rest), the +0 it leaves in accum and
// the contrib product, on aggregates of +0, -0, a subnormal, 1, +Inf and
// random lanes, with zero and non-zero dangling mass; and it holds the cells
// whose pulls read props to the same body without the contrib store. The
// body inlines the step into core's loop, so a GOAMD64=v3 build that fused a
// product there and not in Apply (or the reverse) would fail here.
func TestFusedRankStepMatchesApply(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(7, 400, gen.DefaultRMAT, 4), 5)
	cg := BuildGraph(g)
	r := NewRunner(cg, Options{Workers: 1})
	defer r.Close()
	rng := rand.New(rand.NewSource(9))
	lanes := []uint64{0, math.Float64bits(math.Copysign(0, -1)), 1, math.Float64bits(1), math.Float64bits(math.Inf(1))}
	for range 8 {
		lanes = append(lanes, rng.Uint64())
	}
	zeros, uniform := make([]uint64, cg.N), make([]uint64, cg.N)
	for v := range uniform {
		uniform[v] = math.Float64bits(1 / float64(cg.N))
	}
	for _, name := range []string{"pr", "wpr", "ppr"} {
		ent, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ent.New(cg, ent.Normalize(apps.Params{Root: 3}))
		if err != nil {
			t.Fatal(err)
		}
		_, scale := apps.KindOf(p)
		ec := r.NewContext()
		ec.Init(p)
		for _, dangling := range [][]uint64{zeros, uniform} {
			p.PreIteration(dangling)
			for _, agg := range lanes {
				for v := range ec.accum {
					ec.accum[v] = agg
				}
				if got := builtArm(ec, p); got != armRank {
					t.Fatalf("%s: the Vertex phase builds the %s", name, got)
				}
				body, _ := vertexBodyFor(ec, p)
				body(sched.Range{Lo: 0, Hi: cg.N}, 0, 0, 0)
				for v := range cg.N {
					want, _ := p.Apply(0, agg, uint32(v))
					wantContrib := math.Float64bits(float64(math.Float64frombits(want) * scale[v]))
					if ec.props[v] != want || ec.accum[v] != 0 || math.Float64bits(ec.contrib[v]) != wantContrib {
						t.Fatalf("%s: vertex %d on %#x: rank %#x, accum %#x, contrib %#x; Apply says %#x, +0 and %#x",
							name, v, agg, ec.props[v], ec.accum[v], math.Float64bits(ec.contrib[v]), want, wantContrib)
					}
				}
			}
		}
	}
	// A cell whose Edge-Pull reads props instead runs the same body without
	// the contrib store, and leaves contrib stale.
	p := apps.PageRankOn(cg.RankScale(false))
	for name, opt := range map[string]Options{
		"scalar": {Scalar: true}, "traditional": {Variant: PullTraditional},
		"push": {Mode: EnginePushOnly}, "full-vector": {AblateFullVector: true},
	} {
		opt.Workers = 1
		r := NewRunner(cg, opt)
		ec := r.NewContext()
		ec.Init(p)
		body, fresh := vertexBodyFor(ec, p)
		body(sched.Range{Lo: 0, Hi: cg.N}, 0, 0, 0)
		if arm := builtArm(ec, p); arm != armRank || fresh || ec.contrib != nil {
			t.Fatalf("%s: the Vertex phase built the %s, contrib current %v, contrib stored %v", name, arm, fresh, ec.contrib != nil)
		}
		r.Close()
	}
}

// TestRankContribReusedAndSeeded runs pr, ppr, wpr and pr again on one Runner
// at one worker, so every run takes the one ExecContext the run before left
// with contrib current for its own program, then a pr seeded with ppr's
// result on it, and holds each result to a fresh Runner's bit for bit: a
// context that carried contrib across Init or a seed install would start a
// run from the previous run's ranks.
func TestRankContribReusedAndSeeded(t *testing.T) {
	g := gen.AddUniformWeights(gen.RMAT(8, 1500, gen.DefaultRMAT, 1), 2)
	cg := BuildGraph(g)
	shared := NewRunner(cg, Options{Workers: 1})
	defer shared.Close()
	run := func(r *Runner, name string, seed *Seed) Result {
		t.Helper()
		ent, err := apps.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		params := ent.Normalize(apps.Params{Iters: 5, Root: 7})
		p, err := ent.New(cg, params)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunCtx(context.Background(), r, p, params.Iters, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Seeded != (seed != nil) {
			t.Fatalf("%s: Seeded = %v with seed %v", name, res.Seeded, seed != nil)
		}
		return res
	}
	check := func(name string, seed *Seed) Result {
		t.Helper()
		got := run(shared, name, seed)
		fresh := NewRunner(cg, Options{Workers: 1})
		defer fresh.Close()
		if want := run(fresh, name, seed); !slices.Equal(got.Props, want.Props) {
			t.Fatalf("%s (seeded %v) on a reused context differs from a fresh Runner's", name, seed != nil)
		}
		return got
	}
	var ppr Result
	for _, name := range []string{"pr", "ppr", "wpr", "pr"} {
		if res := check(name, nil); name == "ppr" {
			ppr = res
		}
	}
	check("pr", &Seed{Props: ppr.Props})
}
