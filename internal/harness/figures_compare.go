package harness

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/numa"
)

// Table1 reports the six dataset analogs next to the originals they stand
// in for (the substitution record of DESIGN.md §2).
func Table1(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Table 1: dataset analogs (scaled synthetic substitutes; see DESIGN.md)",
		Columns: []string{"Abbr", "Name", "Orig V", "Orig E", "Analog V", "Analog E", "Avg deg", "Max in-deg", "P99 in-deg"},
	}
	for _, d := range cfg.Datasets {
		g := cfg.DatasetGraph(d)
		st := gen.Measure(d, g)
		ov, oe := gen.OriginalSize(d)
		t.AddRow(d.Abbrev(), d.String(), fmtCount(ov), fmtCount(oe),
			st.Vertices, st.Edges, st.AvgDegree, st.MaxInDegree, st.P99InDegree)
	}
	return []*Table{t}
}

func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	default:
		return fmt.Sprint(n)
	}
}

// Table2 reports the artifact's suggested PageRank iteration counts.
func Table2(Config) []*Table {
	t := &Table{
		Title:   "Table 2: suggested PageRank iteration counts (artifact appendix)",
		Columns: []string{"Graph", "fig10a-vertex-*", "All others"},
	}
	rows := [][3]any{
		{"cit-Patents", 1024, 1024},
		{"dimacs-usa", 256, 256},
		{"livejournal", 1024, 256},
		{"twitter-2010", 64, 16},
		{"friendster", 64, 16},
		{"uk-2007", 32, 16},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2])
	}
	return []*Table{t}
}

// socketTopology maps a simulated socket count onto a NUMA topology with the
// configured worker budget (at least one worker per socket; workers are
// oversubscribed onto the reproduction machine's cores when sockets exceed
// them — partitioning structure, not wall-clock NUMA scaling, is what
// transfers; see DESIGN.md §2).
func socketTopology(cfg Config, sockets int) numa.Topology {
	per := cfg.Workers / sockets
	if per < 1 {
		per = 1
	}
	return numa.Topology{Nodes: sockets, WorkersPerNode: per}
}

// runGrazelleApp executes one application end-to-end on a Grazelle runner. pr
// is the dataset's PageRank program, built once by the caller: InitProps
// resets its per-run state, so no timed run pays for its set-up.
func runGrazelleApp(r *core.Runner, pr *apps.PageRank, app string, prIters int) {
	switch app {
	case "PR":
		core.Run(r, pr, prIters)
	case "CC":
		core.Run(r, apps.NewConnComp(), 1<<20)
	default:
		core.Run(r, apps.NewBFS(0), 1<<20)
	}
}

// runBaselineApp executes one application end-to-end on a baseline
// framework, with the same caller-built PageRank program.
func runBaselineApp(fw baselines.Framework, pr *apps.PageRank, app string, prIters int) {
	switch app {
	case "PR":
		fw.Run(pr, prIters)
	case "CC":
		fw.Run(apps.NewConnComp(), 1<<20)
	default:
		fw.Run(apps.NewBFS(0), 1<<20)
	}
}

// compareFrameworks builds the Figs 11–13 comparison for one application
// across simulated socket counts and all datasets.
func compareFrameworks(cfg Config, title, app string) []*Table {
	cfg = cfg.withDefaults()
	sockets := []int{1, 2, 4}
	if cfg.Quick {
		sockets = []int{1, 2}
	}
	t := &Table{
		Title: title,
		Note: "wall-clock times; n/a marks framework/dataset pairs that fail at original scale " +
			"(§6: GraphMat's 32-bit indexing and Polymer's crash on uk-2007)",
		Columns: []string{"Sockets", "Graph", "Grazelle-Pull", "Grazelle (paper configuration)", "Grazelle", "Ligra", "Ligra-Dense", "Polymer", "GraphMat", "X-Stream"},
	}
	for _, s := range sockets {
		topo := socketTopology(cfg, s)
		workers := topo.TotalWorkers()
		for _, d := range cfg.Datasets {
			g := cfg.DatasetGraph(d)
			cg := cfg.DatasetCoreGraph(d)
			pr := apps.PageRankOn(cg.RankScale(false))
			_, origEdges := gen.OriginalSize(d)

			// paper pins the engine the paper evaluates: every iteration
			// scans whole arrays (core.Options.AblateFrontierWork).
			grazelle := func(mode core.EngineMode, paper bool) time.Duration {
				r := core.NewRunner(cg, core.Options{Workers: workers, Topology: topo, Mode: mode, AblateFrontierWork: paper})
				defer r.Close()
				return cfg.timeBest(func() { runGrazelleApp(r, pr, app, cfg.PRIters) })
			}
			baseline := func(fw baselines.Framework) time.Duration {
				defer fw.Close()
				return cfg.timeBest(func() { runBaselineApp(fw, pr, app, cfg.PRIters) })
			}

			pull := grazelle(core.EnginePullOnly, true)
			var paperCell string
			if app == "PR" {
				paperCell = fmtDuration(grazelle(core.EnginePushOnly, true)) + " (push)"
			} else {
				// For frontier applications the paper reports hybrid
				// Grazelle.
				paperCell = fmtDuration(grazelle(core.EngineHybrid, true)) + " (hybrid)"
			}
			// The shipped default: hybrid with the list-driven round and
			// early-exit pull (for PageRank, which never consults the
			// frontier, the pull engine unchanged).
			shipped := grazelle(core.EngineHybrid, false)
			lig := baseline(baselines.NewLigra(g, workers))
			ligD := baseline(baselines.NewLigraDense(g, workers))

			polymerCell := "n/a (crash >3B edges)"
			if origEdges <= 3_000_000_000 {
				polymerCell = fmtDuration(baseline(baselines.NewPolymer(g, topo)))
			}
			graphmatCell := "n/a (int32 overflow)"
			if origEdges <= math.MaxInt32 {
				if fw, err := baselines.NewGraphMat(g, workers); err == nil {
					graphmatCell = fmtDuration(baseline(fw))
				}
			}
			xs := baseline(baselines.NewXStream(g, workers))

			t.AddRow(s, d.Abbrev(), pull, paperCell, shipped, lig, ligD, polymerCell, graphmatCell, xs)
		}
	}
	return []*Table{t}
}

// Fig11 compares per-framework PageRank times (the paper's per-iteration
// comparison; here a fixed iteration count per run).
func Fig11(cfg Config) []*Table {
	return compareFrameworks(cfg, "Figure 11: PageRank execution time across frameworks", "PR")
}

// Fig12 compares Connected Components across frameworks.
func Fig12(cfg Config) []*Table {
	return compareFrameworks(cfg, "Figure 12: Connected Components execution time across frameworks", "CC")
}

// Fig13 compares Breadth-First Search across frameworks.
func Fig13(cfg Config) []*Table {
	return compareFrameworks(cfg, "Figure 13: Breadth-First Search execution time across frameworks", "BFS")
}
