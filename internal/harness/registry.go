package harness

import (
	"fmt"
	"sort"
)

// Experiment is one registered paper experiment.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig5").
	Name string
	// Description summarizes what the experiment reproduces.
	Description string
	// Run produces the experiment's tables.
	Run func(Config) []*Table
}

// experiments is the registry, keyed by name.
var experiments = map[string]Experiment{}

func register(name, desc string, run func(Config) []*Table) {
	experiments[name] = Experiment{Name: name, Description: desc, Run: run}
}

func init() {
	register("table1", "dataset analogs vs the paper's Table 1 inputs", Table1)
	register("table2", "suggested PageRank iteration counts (artifact Table 2)", Table2)
	register("fig1", "Ligra loop-parallelization configurations (Fig 1)", Fig1)
	register("fig5", "scheduler awareness on PageRank: time + profile (Fig 5)", Fig5)
	register("fig6", "chunk-size sensitivity (Fig 6)", Fig6)
	register("fig7", "multi-core scaling of the two interfaces (Fig 7)", Fig7)
	register("fig8", "scheduler awareness on Connected Components (Fig 8)", Fig8)
	register("fig9", "Vector-Sparse packing efficiency (Fig 9)", Fig9)
	register("fig10", "vectorization speedups by phase and application (Fig 10)", Fig10)
	register("fig11", "framework comparison: PageRank (Fig 11)", Fig11)
	register("fig12", "framework comparison: Connected Components (Fig 12)", Fig12)
	register("fig13", "framework comparison: BFS (Fig 13)", Fig13)
	register("dirsweep", "hybrid direction rule: degree-share threshold sweep (not in the paper)", DirSweep)
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	e, ok := experiments[name]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (try one of %v)", name, Names())
	}
	return e, nil
}

// Names lists registered experiment names in order.
func Names() []string {
	out := make([]string, 0, len(experiments))
	for n := range experiments {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every experiment in name order.
func All() []Experiment {
	var out []Experiment
	for _, n := range Names() {
		out = append(out, experiments[n])
	}
	return out
}
