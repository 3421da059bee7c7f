// Command benchfig regenerates the paper's evaluation tables and figures.
// Each experiment is named after its figure or table number:
//
//	benchfig fig5            # scheduler awareness on PageRank
//	benchfig fig9 fig10      # Vector-Sparse studies
//	benchfig all             # the complete evaluation
//	benchfig -list           # enumerate experiments
//
// Results print as aligned plain-text tables; EXPERIMENTS.md records a
// committed run next to the paper's reported shapes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/harness"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		scale    = flag.Float64("scale", 0, "dataset scale factor (0 = default)")
		workers  = flag.Int("workers", 0, "maximum workers (0 = GOMAXPROCS)")
		prIters  = flag.Int("pr-iters", 0, "PageRank iterations per measurement")
		repeats  = flag.Int("repeats", 0, "timing repetitions (minimum reported)")
		quick    = flag.Bool("quick", false, "reduced sizes for a fast pass")
		datasets = flag.String("datasets", "", "comma-free dataset abbreviations, e.g. \"TDU\" (default all)")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-8s %s\n", e.Name, e.Description)
		}
		return nil
	}

	cfg := harness.Config{
		Scale:   *scale,
		Workers: *workers,
		PRIters: *prIters,
		Repeats: *repeats,
		Quick:   *quick,
	}
	if *datasets != "" {
		for _, ch := range *datasets {
			d, err := gen.ParseDataset(string(ch))
			if err != nil {
				return err
			}
			cfg.Datasets = append(cfg.Datasets, d)
		}
	}

	names := flag.Args()
	if len(names) == 0 {
		return fmt.Errorf("no experiments named (try -list or \"all\")")
	}
	if len(names) == 1 && names[0] == "all" {
		names = harness.Names()
	}
	for _, name := range names {
		exp, err := harness.Lookup(name)
		if err != nil {
			return err
		}
		fmt.Printf("# %s: %s\n\n", exp.Name, exp.Description)
		for _, t := range exp.Run(cfg) {
			t.Render(os.Stdout)
		}
	}
	return nil
}
