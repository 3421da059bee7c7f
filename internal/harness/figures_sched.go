package harness

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/baselines/ligra"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/race"
)

// Fig1 reproduces the introduction's motivating experiment: Ligra's loop
// parallelization configurations (PushS, PushP, PushP+PullS, PushP+PullP,
// PushP+PullP-NoSync) on the twitter-2010 analog for PageRank, Connected
// Components, and BFS. Values are speedups over PushS; the paper's shape is
// PushP > PushS, PushP+PullS ≫ PushP, and PushP+PullP *below* PushP+PullS.
func Fig1(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	g := cfg.DatasetGraph(gen.Twitter)
	configs := []ligra.LoopConfig{
		ligra.PushS, ligra.PushP, ligra.PushPPullS, ligra.PushPPullP,
	}
	if !race.Enabled {
		// The NoSync configuration is racy by design (the paper plots it to
		// isolate conflict cost); it cannot run under the race detector.
		configs = append(configs, ligra.PushPPullPNoSync)
	}
	apps3 := []string{"PageRank", "ConnectedComponents", "BFS"}
	pr := apps.NewPageRank(g) // built once: the runs time the framework, not the set-up
	times := map[string]map[ligra.LoopConfig]time.Duration{}
	for _, a := range apps3 {
		times[a] = map[ligra.LoopConfig]time.Duration{}
	}
	for _, lc := range configs {
		fw := baselines.NewLigraLoops(g, cfg.Workers, lc)
		times["PageRank"][lc] = cfg.timeBest(func() { fw.Run(pr, cfg.PRIters) })
		times["ConnectedComponents"][lc] = cfg.timeBest(func() { fw.Run(apps.NewConnComp(), 1<<20) })
		times["BFS"][lc] = cfg.timeBest(func() { fw.Run(apps.NewBFS(0), 1<<20) })
		fw.Close()
	}
	t := &Table{
		Title: "Figure 1: Ligra inner-loop parallelization on the twitter-2010 analog",
		Note: fmt.Sprintf("speedup over PushS; %d workers, graph %d vertices / %d edges",
			cfg.Workers, g.NumVertices, g.NumEdges()),
		Columns: []string{"Application", "PushS", "PushP", "PushP+PullS", "PushP+PullP", "PushP+PullP-NoSync"},
	}
	for _, a := range apps3 {
		base := times[a][ligra.PushS]
		noSync := any("n/a (race detector)")
		if !race.Enabled {
			noSync = ratio(base, times[a][ligra.PushPPullPNoSync])
		}
		t.AddRow(a,
			ratio(base, times[a][ligra.PushS]),
			ratio(base, times[a][ligra.PushP]),
			ratio(base, times[a][ligra.PushPPullS]),
			ratio(base, times[a][ligra.PushPPullP]),
			noSync)
	}
	return []*Table{t}
}

// schedVariants returns the interfaces compared throughout §6.1. The
// nonatomic reference point is racy by design and excluded under -race.
func schedVariants() []core.PullVariant {
	if race.Enabled {
		return []core.PullVariant{core.PullTraditional, core.PullSchedulerAware}
	}
	return []core.PullVariant{
		core.PullTraditional, core.PullTraditionalNonatomic, core.PullSchedulerAware,
	}
}

// runPR times cfg.PRIters PageRank iterations under the given pull variant
// and granularity on plain runs, which charge no counter. With record set it
// then makes one separate Record run of the same cell and returns its result
// for the counters and the Fig 5b profile; the timed runs never record.
func runPR(cfg Config, d gen.Dataset, variant core.PullVariant, chunkVectors int, record bool) (time.Duration, core.Result) {
	cg := cfg.DatasetCoreGraph(d)
	opt := core.Options{
		Workers:      cfg.Workers,
		Variant:      variant,
		ChunkVectors: chunkVectors,
		Mode:         core.EnginePullOnly,
	}
	p := apps.PageRankOn(cg.RankScale(false))
	r := core.NewRunner(cg, opt)
	dur := cfg.timeBest(func() { core.Run(r, p, cfg.PRIters) })
	r.Close()
	var res core.Result
	if record {
		opt.Record = true
		r := core.NewRunner(cg, opt)
		res = core.Run(r, p, cfg.PRIters)
		r.Close()
	}
	return dur, res
}

// Fig5 reproduces §6.1's headline comparison: PageRank under the
// traditional, traditional-nonatomic, and scheduler-aware interfaces at a
// fixed granularity of 1,000 edge vectors per chunk, across all six
// datasets. Fig 5a reports execution time relative to the traditional
// interface (lower is better), timed on runs that record nothing; Fig 5b
// reports the execution-time profile and the conflict counters that explain
// it, from one Record run per cell.
func Fig5(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	const granularity = 1000
	ta := &Table{
		Title:   "Figure 5a: PageRank execution time relative to the traditional interface (granularity 1000 vectors/chunk)",
		Columns: []string{"Graph", "Traditional", "Traditional-Nonatomic", "Scheduler-Aware", "SA speedup"},
	}
	tb := &Table{
		Title:   "Figure 5b: execution profile and conflict counters",
		Note:    "Work/Merge/Idle are fractions of edge-phase worker time; counters are per full run",
		Columns: []string{"Graph", "Variant", "Work%", "Merge%", "Idle%", "SharedWrites", "TLSWrites", "AtomicOps", "CASRetries"},
	}
	for _, d := range cfg.Datasets {
		times := map[core.PullVariant]time.Duration{}
		for _, v := range schedVariants() {
			dur, res := runPR(cfg, d, v, granularity, true)
			times[v] = dur
			prof := res.EdgeProfile
			tot := prof.Total()
			pct := func(x time.Duration) string {
				if tot == 0 {
					return "0"
				}
				return fmt.Sprintf("%.1f", 100*float64(x)/float64(tot))
			}
			tb.AddRow(d.Abbrev(), v.String(), pct(prof.Work), pct(prof.Merge), pct(prof.Idle),
				res.EdgeCounters.SharedWrites, res.EdgeCounters.TLSWrites,
				res.EdgeCounters.AtomicOps, res.EdgeCounters.CASRetries)
		}
		base := times[core.PullTraditional]
		nonatomic := any("n/a (race detector)")
		if _, ok := times[core.PullTraditionalNonatomic]; ok {
			nonatomic = relTime(base, times[core.PullTraditionalNonatomic])
		}
		ta.AddRow(d.Abbrev(),
			relTime(base, times[core.PullTraditional]),
			nonatomic,
			relTime(base, times[core.PullSchedulerAware]),
			ratio(base, times[core.PullSchedulerAware]))
	}
	return []*Table{ta, tb}
}

func relTime(base, v time.Duration) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}

// Fig6 reproduces the chunk-size sensitivity study on the dimacs-usa,
// twitter-2010, and uk-2007 analogs: the traditional interface's time
// varies strongly with granularity while the scheduler-aware interface is
// nearly flat.
func Fig6(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	grans := []int{100, 250, 500, 1000, 2500, 5000, 10000}
	if cfg.Quick {
		grans = []int{100, 1000, 10000}
	}
	var tables []*Table
	for _, d := range []gen.Dataset{gen.DimacsUSA, gen.Twitter, gen.UK2007} {
		t := &Table{
			Title:   fmt.Sprintf("Figure 6: PageRank chunk-size sensitivity on %s analog", d),
			Note:    "times relative to Traditional at the smallest granularity; lower is better",
			Columns: []string{"Vectors/chunk", "Traditional", "Scheduler-Aware"},
		}
		var base time.Duration
		for i, g := range grans {
			tTrad, _ := runPR(cfg, d, core.PullTraditional, g, false)
			tSA, _ := runPR(cfg, d, core.PullSchedulerAware, g, false)
			if i == 0 {
				base = tTrad
			}
			t.AddRow(g, relTime(base, tTrad), relTime(base, tSA))
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig7 reproduces the multi-core scaling study: PageRank performance of the
// two interfaces as worker count grows, normalized to the traditional
// interface at one worker, timed on runs that record nothing. The
// reproduction machine has few cores, so the CAS-retry counter — the direct
// mechanism behind the paper's scaling gap — is reported alongside, with the
// scheduler-aware atomics, from one Record run per cell.
func Fig7(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	var tables []*Table
	cases := []struct {
		d    gen.Dataset
		gran int
	}{{gen.DimacsUSA, 5000}, {gen.Twitter, 5000}, {gen.UK2007, 50000}}
	for _, cse := range cases {
		t := &Table{
			Title:   fmt.Sprintf("Figure 7: PageRank multi-core scaling on %s analog (granularity %d)", cse.d, cse.gran),
			Note:    "performance relative to Traditional at 1 worker; higher is better",
			Columns: []string{"Workers", "Traditional", "Scheduler-Aware", "Trad CASRetries", "SA AtomicOps"},
		}
		var base time.Duration
		for w := 1; w <= cfg.Workers; w++ {
			sub := cfg
			sub.Workers = w
			tTrad, resT := runPR(sub, cse.d, core.PullTraditional, cse.gran, true)
			tSA, resS := runPR(sub, cse.d, core.PullSchedulerAware, cse.gran, true)
			if w == 1 {
				base = tTrad
			}
			t.AddRow(w, ratio(base, tTrad), ratio(base, tSA),
				resT.EdgeCounters.CASRetries, resS.EdgeCounters.AtomicOps)
		}
		tables = append(tables, t)
	}
	return tables
}

// Fig8 reproduces the Connected Components scheduler-awareness study at
// Grazelle's default granularity: the write-intense variant (8a) and the
// standard version (8b), as execution time relative to the traditional
// interface.
func Fig8(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	mk := func(writeIntense bool, title string) *Table {
		t := &Table{
			Title:   title,
			Columns: []string{"Graph", "Traditional", "Traditional-Nonatomic", "Scheduler-Aware"},
		}
		for _, d := range cfg.Datasets {
			cg := cfg.DatasetCoreGraph(d)
			times := map[core.PullVariant]time.Duration{}
			for _, v := range schedVariants() {
				// The paper configuration: the figure isolates the pull
				// interface, so no iteration may leave it for the
				// list-driven round.
				r := core.NewRunner(cg, core.Options{Workers: cfg.Workers, Variant: v, AblateFrontierWork: true})
				prog := apps.NewConnComp()
				if writeIntense {
					prog = apps.NewConnCompWriteIntense()
				}
				times[v] = cfg.timeBest(func() { core.Run(r, prog, 1<<20) })
				r.Close()
			}
			base := times[core.PullTraditional]
			nonatomic := any("n/a (race detector)")
			if _, ok := times[core.PullTraditionalNonatomic]; ok {
				nonatomic = relTime(base, times[core.PullTraditionalNonatomic])
			}
			t.AddRow(d.Abbrev(),
				relTime(base, times[core.PullTraditional]),
				nonatomic,
				relTime(base, times[core.PullSchedulerAware]))
		}
		return t
	}
	return []*Table{
		mk(true, "Figure 8a: Connected Components (write-intense) relative execution time"),
		mk(false, "Figure 8b: Connected Components (standard) relative execution time"),
	}
}
