package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
)

// dirSweepShares are the hybrid degree-share thresholds DirSweep compares:
// Besta et al.'s 0.05, the shipped 0.15, one in between, and the term off —
// the row that says whether the term earns its place at all.
var dirSweepShares = []float64{0.05, 0.10, 0.15, -1}

// dirSweepRoots is how many roots a rooted application is run from. The
// term fires on a minority of roots (those whose second or third frontier
// holds a hub), so one or two hand-picked roots can miss it entirely.
const dirSweepRoots = 40

// DirSweep is the evidence behind core.Options.PullDegreeShare's default:
// BFS and SSSP from dirSweepRoots scattered roots, and CC, on each analog
// (weighted) under each threshold. A row sums the fastest-of-Repeats wall
// over the roots and counts the iterations each direction got, so a
// threshold that schedules nothing differently shows identical counts.
func DirSweep(cfg Config) []*Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Direction-rule sweep: hybrid schedule and wall time by degree-share threshold",
		Note:    "wall and iteration counts summed over the roots; '<' pull, '>' dense-scan push, 's' list-driven round; share -1 disables the degree-sum term",
		Columns: []string{"Graph", "App", "Roots", "Share", "Wall", "<", ">", "s"},
	}
	for _, ds := range cfg.Datasets {
		cg := core.BuildGraph(gen.AddUniformWeights(cfg.DatasetGraph(ds), 7))
		for _, app := range []string{"bfs", "cc", "sssp"} {
			roots := dirSweepRoots
			if app == "cc" {
				roots = 1 // rootless
			}
			// The thresholds take turns root by root, so drift on a shared
			// box lands on all of them alike.
			runners := make([]*core.Runner, len(dirSweepShares))
			walls := make([]time.Duration, len(dirSweepShares))
			dirs := make([]strings.Builder, len(dirSweepShares))
			for i, share := range dirSweepShares {
				runners[i] = core.NewRunner(cg, core.Options{Workers: cfg.Workers, PullDegreeShare: share, Trace: true})
			}
			for k := 0; k < roots; k++ {
				root := uint32(k) * 2654435761 % uint32(cg.N)
				for i, r := range runners {
					run := func() core.Result {
						switch app {
						case "bfs":
							return core.Run(r, apps.NewBFS(root), 1<<20)
						case "cc":
							return core.Run(r, apps.NewConnComp(), 1<<20)
						}
						return core.Run(r, apps.NewSSSP(root), 1<<20)
					}
					dirs[i].WriteString(run().Trace.Directions)
					walls[i] += cfg.timeBest(func() { run() })
				}
			}
			for i, share := range dirSweepShares {
				runners[i].Close()
				d := dirs[i].String()
				t.AddRow(ds.Abbrev(), app, roots, fmt.Sprintf("%.2f", share), walls[i],
					strings.Count(d, "<"), strings.Count(d, ">"), strings.Count(d, "s"))
			}
		}
	}
	return []*Table{t}
}
