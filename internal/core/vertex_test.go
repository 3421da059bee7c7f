package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/frontier"
	"repro/internal/sched"
	"repro/internal/vec"
)

// TestWordBits drives the frontier-word writer of both Vertex bodies over
// the ranges a phase cuts — dense ranges as StaticFor splits N at one to
// three workers, ranges of a touched list whose neighbouring entries do and
// do not share a 64-vertex word, and an empty range — and checks each
// range's shared end words, then that the ranges' flushes together wrote
// exactly the changed vertices into next and conv.
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
