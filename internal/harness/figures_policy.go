package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
)

// dirSweepShares are the hybrid degree-share thresholds DirSweep compares:
// Besta et al.'s 0.05, the shipped 0.15, one in between, and the term off.
var dirSweepShares = []float64{0.05, 0.10, 0.15, -1}

// DirSweep is the evidence behind core.Options.PullDegreeShare's default:
// BFS, CC and SSSP on each analog (weighted, from its top out-degree vertex
// and from vertex 1) under each threshold. The thresholds of one row run
// interleaved, rep by rep, so drift on a shared box lands on all of them
// alike; cells are medians of cfg.Repeats, and the direction string says
// which rows a threshold actually schedules differently.
func DirSweep(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Direction-rule sweep: hybrid schedule and wall time by degree-share threshold",
		Note:    "'<' pull, '>' dense-scan push, 's' list-driven round; share -1 disables the degree-sum term",
		Columns: []string{"Graph", "App", "Root", "Share", "Median", "Q1", "Q3", "Directions"},
	}
	for _, d := range cfg.Datasets {
		g := gen.AddUniformWeights(cfg.DatasetGraph(d), 7)
		cg := core.BuildGraph(g)
		hub, outDeg := uint32(0), g.OutDegrees()
		for v, deg := range outDeg {
			if deg > outDeg[hub] {
				hub = uint32(v)
			}
		}
		for _, app := range []string{"bfs", "cc", "sssp"} {
			for _, root := range []uint32{hub, 1} {
				if app == "cc" && root != hub {
					continue // rootless
				}
				run := func(r *core.Runner) core.Result {
					switch app {
					case "bfs":
						return core.Run(r, apps.NewBFS(root), 1<<20)
					case "cc":
						return core.Run(r, apps.NewConnComp(), 1<<20)
					}
					return core.Run(r, apps.NewSSSP(root), 1<<20)
				}
				runners := make([]*core.Runner, len(dirSweepShares))
				dirs := make([]string, len(dirSweepShares))
				walls := make([][]time.Duration, len(dirSweepShares))
				for i, share := range dirSweepShares {
					traced := core.NewRunner(cg, core.Options{Workers: cfg.Workers, PullDegreeShare: share, Trace: true})
					dirs[i] = run(traced).Trace.Directions
					traced.Close()
					runners[i] = core.NewRunner(cg, core.Options{Workers: cfg.Workers, PullDegreeShare: share})
				}
				for rep := 0; rep < cfg.Repeats; rep++ {
					for i, r := range runners {
						start := time.Now()
						run(r)
						walls[i] = append(walls[i], time.Since(start))
					}
				}
				for i, share := range dirSweepShares {
					runners[i].Close()
					w := walls[i]
					sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
					t.AddRow(d.Abbrev(), app, root, fmt.Sprintf("%.2f", share),
						w[len(w)/2], w[len(w)/4], w[3*len(w)/4], abbreviateDirections(dirs[i]))
				}
			}
		}
	}
	return []*Table{t}
}

// abbreviateDirections keeps short direction strings whole and reduces the
// mesh's hundreds of marks to their head and per-mark counts.
func abbreviateDirections(d string) string {
	if len(d) <= 32 {
		return d
	}
	return fmt.Sprintf("%s… (%d: %d< %d> %ds)", d[:16], len(d),
		strings.Count(d, "<"), strings.Count(d, ">"), strings.Count(d, "s"))
}
