package harness

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// Fig9 reproduces the packing-efficiency study. 9a: average edge-vector
// packing efficiency of the six dataset analogs for 4-, 8-, and 16-element
// vectors (256/512/1024-bit). 9b: the same metric over a synthetic R-MAT
// suite swept by average degree. Both are exact analytic properties of the
// degree distributions, so this figure reproduces quantitatively, not just
// in shape.
func Fig9(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	lanes := []int{4, 8, 16}
	ta := &Table{
		Title:   "Figure 9a: Vector-Sparse packing efficiency, real-graph analogs",
		Columns: []string{"Graph", "4-element", "8-element", "16-element"},
	}
	for _, d := range cfg.Datasets {
		g := cfg.DatasetGraph(d)
		deg := g.InDegrees()
		row := []any{d.Abbrev()}
		for _, l := range lanes {
			row = append(row, fmt.Sprintf("%.1f%%", 100*vsparse.PackingEfficiencyForLanes(deg, l)))
		}
		ta.AddRow(row...)
	}
	tb := &Table{
		Title:   "Figure 9b: packing efficiency vs average degree (R-MAT suite)",
		Columns: []string{"log2(avg degree)", "4-element", "8-element", "16-element"},
	}
	scale := 10
	maxLog := 12
	if cfg.Quick {
		scale, maxLog = 8, 8
	}
	n := 1 << scale
	for lg := 0; lg <= maxLog; lg++ {
		edges := n * (1 << lg)
		g := gen.RMAT(scale, edges, gen.DefaultRMAT, int64(100+lg))
		deg := g.InDegrees()
		row := []any{lg}
		for _, l := range lanes {
			row = append(row, fmt.Sprintf("%.1f%%", 100*vsparse.PackingEfficiencyForLanes(deg, l)))
		}
		tb.AddRow(row...)
	}
	return []*Table{ta, tb}
}

// phaseTimes measures one Grazelle phase in isolation: the runner is
// initialized once and the phase re-executed repeats times.
func phaseTime(cfg Config, cg *core.Graph, p apps.Program, opt core.Options, phase string) time.Duration {
	opt.Workers = cfg.Workers
	opt.Mode = core.EnginePullOnly
	if phase == "push" {
		opt.Mode = core.EnginePushOnly
	}
	r := core.NewRunner(cg, opt)
	defer r.Close()
	ec := r.NewContext()
	ec.Init(p)
	reps := cfg.PRIters
	switch phase {
	case "pull":
		return cfg.timeBest(func() {
			for i := 0; i < reps; i++ {
				core.RunEdgePull(ec, p)
			}
		})
	case "push":
		return cfg.timeBest(func() {
			for i := 0; i < reps; i++ {
				core.RunEdgePush(ec, p)
			}
		})
	default: // vertex
		return cfg.timeBest(func() {
			for i := 0; i < reps; i++ {
				core.RunVertex(ec, p)
			}
		})
	}
}

// Fig10 reproduces the vectorization study: 10a compares the vectorized and
// scalar implementations of each Grazelle phase under PageRank (Edge-Pull
// responds ~2×, Edge-Push and Vertex stay flat); 10b reports end-to-end
// application speedups (PageRank > Connected Components > BFS, ordered by
// Edge-Pull usage). PageRank's Edge-Pull has two vectorized forms — the
// software vector unit (the gather kernel's Go twin, core.Options.AblateSIMD)
// and the process's selected kernel, the AVX2 vgatherqpd loop where the CPU
// has it — so it gets a column each; every other phase and application has
// the software unit only.
func Fig10(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	simd := "kernel: " + vec.Kernel()
	var (
		scalar   = core.Options{Scalar: true}
		software = core.Options{AblateSIMD: true}
		selected = core.Options{}
	)
	ta := &Table{
		Title:   "Figure 10a: vectorization speedup by PageRank phase (scalar time / vectorized time)",
		Columns: []string{"Graph", "Edge-Pull (software unit)", "Edge-Pull (" + simd + ")", "Edge-Push", "Vertex"},
	}
	for _, d := range cfg.Datasets {
		cg := cfg.DatasetCoreGraph(d)
		p := apps.PageRankOn(cg.RankScale(false))
		pull := phaseTime(cfg, cg, p, scalar, "pull")
		row := []any{d.Abbrev(),
			ratio(pull, phaseTime(cfg, cg, p, software, "pull")),
			ratio(pull, phaseTime(cfg, cg, p, selected, "pull"))}
		for _, phase := range []string{"push", "vertex"} {
			row = append(row, ratio(phaseTime(cfg, cg, p, scalar, phase), phaseTime(cfg, cg, p, software, phase)))
		}
		ta.AddRow(row...)
	}
	tb := &Table{
		Title:   "Figure 10b: end-to-end vectorization speedup by application",
		Columns: []string{"Graph", "PR (software unit)", "PR (" + simd + ")", "CC", "BFS"},
	}
	for _, d := range cfg.Datasets {
		cg := cfg.DatasetCoreGraph(d)
		prog := apps.PageRankOn(cg.RankScale(false)) // built once: the runs time the engine, not the set-up
		runOnce := func(app string, opt core.Options) time.Duration {
			// The paper configuration: scalar and vectorized runs must
			// differ only in the kernels the figure compares.
			opt.Workers, opt.AblateFrontierWork = cfg.Workers, true
			r := core.NewRunner(cg, opt)
			defer r.Close()
			switch app {
			case "PR":
				return cfg.timeBest(func() { core.Run(r, prog, cfg.PRIters) })
			case "CC":
				return cfg.timeBest(func() { core.Run(r, apps.NewConnComp(), 1<<20) })
			default:
				return cfg.timeBest(func() { core.Run(r, apps.NewBFS(0), 1<<20) })
			}
		}
		pr := runOnce("PR", scalar)
		row := []any{d.Abbrev(), ratio(pr, runOnce("PR", software)), ratio(pr, runOnce("PR", selected))}
		for _, app := range []string{"CC", "BFS"} {
			row = append(row, ratio(runOnce(app, scalar), runOnce(app, software)))
		}
		tb.AddRow(row...)
	}
	return []*Table{ta, tb}
}
