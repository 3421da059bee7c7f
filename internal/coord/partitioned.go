package coord

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/numa"
)

// PartitionedCoordinator runs real partitioned execution: each iteration's
// edge and vertex phases scatter across P per-partition spans of the global
// work grid, gather at a barrier, and — for frontier-driven programs —
// hand the next frontier between partitions before the next convergence
// vote.
//
// The schedule per iteration is
//
//	Begin → Edge scatter-gather → ordered merge → Vertex scatter-gather
//	      → frontier exchange → publish → vote (next Begin)
//
// The exchange is zero-copy: every partition already wrote its activation
// bits into the shared bitmap, so the barrier only charges each partition
// the bytes of its word range (Plan.Words) — what a transport would move.
// The coord/exchange failpoint sits there, ahead of a context check, so the
// chaos suite can fail or wedge the barrier and a watchdog-cancelled context
// surfaces instead of a successful exchange.
//
// Sparse iterations (tiny frontiers) run through the fused monolithic
// closure instead: the frontier is below E/20 edges, so span scatter and
// exchange overhead would dominate the work being split. No exchange bytes
// are charged for them.
//
// Each span executes on the shared pool as one job of a sched.Group bound
// by the engine, so a partitioned query still consumes exactly one
// admission slot. Span goroutines only call the engine's *Span closures,
// which write disjoint global-grid state — determinism is preserved by
// construction (package comment, DESIGN.md §13).
type PartitionedCoordinator struct {
	Policy Policy
	Plan   numa.Plan
	// InPlacePull spans the pull grid of iterations whose Status says
	// InPlace, in place of Plan.PullChunks.
	InPlacePull numa.Partition

	stats []PartitionStat
}

func (c *PartitionedCoordinator) Partitions() int { return c.Plan.Parts }

func (c *PartitionedCoordinator) PartitionStats() []PartitionStat { return c.stats }

func (c *PartitionedCoordinator) Run(ctx context.Context, it Iteration, maxIters int) error {
	parts := c.Plan.Parts
	c.stats = make([]PartitionStat, parts)
	for i := range c.stats {
		c.stats[i].Part = i
	}

	for i := 0; i < maxIters; i++ {
		st := it.Begin()
		if st.Stop {
			break
		}
		dir := c.Policy.Choose(st)
		if dir == DirSparse {
			it.Sparse()
			it.End(dir)
			continue
		}

		grid := c.Plan.PullChunks
		switch {
		case dir == DirPush:
			grid = c.Plan.VertexChunks
		case st.InPlace:
			grid = c.InPlacePull
		}
		it.EdgeBegin(dir)
		c.scatter(grid, func(s Span, stat *PartitionStat) {
			t0 := time.Now()
			it.EdgeSpan(dir, s)
			stat.EdgeWall += time.Since(t0)
			stat.Spans++
		})
		it.EdgeDone(dir)

		it.VertexBegin()
		c.scatter(c.Plan.VertexChunks, func(s Span, stat *PartitionStat) {
			t0 := time.Now()
			it.VertexSpan(s)
			stat.VertexWall += time.Since(t0)
			stat.Spans++
		})
		it.VertexDone()

		if st.UsesFrontier {
			err := fault.Inject("coord/exchange")
			if err != nil {
				err = fmt.Errorf("coord: frontier exchange failed: %w", err)
			} else if err = ctx.Err(); err != nil {
				err = fmt.Errorf("coord: frontier exchange cancelled: %w", err)
			}
			if err != nil {
				// Count the iteration before failing: partial results
				// reflect the last *published* frontier, and the engine
				// reports how far the run got.
				it.End(dir)
				return err
			}
			for p := 0; p < parts; p++ {
				lo, hi := c.Plan.Words.Range(p)
				c.stats[p].ExchangeBytes += int64(hi-lo) * 8
			}
		}
		it.Publish()
		it.End(dir)
	}
	return nil
}

// scatter fans one phase out across the plan's spans and waits for all of
// them. Empty spans are skipped. The driver goroutine runs partition 0's
// span itself so a single-partition plan degenerates to an inline call.
func (c *PartitionedCoordinator) scatter(grid numa.Partition, run func(s Span, stat *PartitionStat)) {
	var wg sync.WaitGroup
	first := -1
	for p := 0; p < c.Plan.Parts; p++ {
		lo, hi := grid.Range(p)
		if lo == hi {
			continue
		}
		if first < 0 {
			first = p
			continue
		}
		wg.Add(1)
		go func(p, lo, hi int) {
			defer wg.Done()
			run(Span{Part: p, Lo: lo, Hi: hi}, &c.stats[p])
		}(p, lo, hi)
	}
	if first >= 0 {
		lo, hi := grid.Range(first)
		run(Span{Part: first, Lo: lo, Hi: hi}, &c.stats[first])
	}
	wg.Wait()
}
