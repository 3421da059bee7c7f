// Command gengraph generates synthetic graphs — the Table 1 dataset analogs,
// raw R-MAT instances, meshes, and uniform random graphs — and writes them
// as the binary "-push"/"-pull" file pair cmd/grazelle consumes.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind     = flag.String("kind", "dataset", "generator: dataset, rmat, mesh, uniform, text")
		in       = flag.String("in", "", "input text edge list (kind=text)")
		dataset  = flag.String("d", "T", "dataset name or abbreviation (kind=dataset)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (kind=dataset)")
		rmatS    = flag.Int("rmat-scale", 14, "log2 vertex count (kind=rmat)")
		edges    = flag.Int("edges", 1_000_000, "edge count (kind=rmat/uniform)")
		a        = flag.Float64("a", 0.57, "R-MAT quadrant A")
		b        = flag.Float64("b", 0.19, "R-MAT quadrant B")
		c        = flag.Float64("c", 0.19, "R-MAT quadrant C")
		rows     = flag.Int("rows", 256, "mesh rows (kind=mesh)")
		cols     = flag.Int("cols", 256, "mesh cols (kind=mesh)")
		vertices = flag.Int("vertices", 1<<16, "vertex count (kind=uniform)")
		seed     = flag.Int64("seed", 1, "random seed")
		weighted = flag.Bool("weighted", false, "attach uniform random weights in [1,10)")
		out      = flag.String("o", "", "output base path (required); writes <o>-push and <o>-pull")
	)
	flag.Parse()
	if *out == "" {
		return fmt.Errorf("-o is required")
	}

	var g *graph.Graph
	switch *kind {
	case "dataset":
		d, err := gen.ParseDataset(*dataset)
		if err != nil {
			return err
		}
		g = gen.Generate(d, *scale)
	case "rmat":
		g = gen.RMAT(*rmatS, *edges, gen.RMATParams{A: *a, B: *b, C: *c, D: 1 - *a - *b - *c}, *seed)
	case "mesh":
		g = gen.Grid(*rows, *cols, *weighted, *seed)
	case "uniform":
		g = gen.ErdosRenyi(*vertices, *edges, *seed)
	case "text":
		if *in == "" {
			return fmt.Errorf("-in is required with kind=text")
		}
		var err error
		g, err = graph.ReadEdgeListFile(*in)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if *weighted && !g.Weighted {
		g = gen.AddUniformWeights(g, *seed+1)
	}
	if err := csr.FromGraph(g, false).WriteFile(*out + "-push"); err != nil {
		return err
	}
	if err := csr.FromGraph(g, true).WriteFile(*out + "-pull"); err != nil {
		return err
	}
	fmt.Printf("wrote %s-push and %s-pull: %d vertices, %d edges, weighted=%v\n",
		*out, *out, g.NumVertices, g.NumEdges(), g.Weighted)
	return nil
}
