// Command grazelle runs a graph application on the Grazelle reproduction,
// mirroring the artifact's command-line interface: -i names a binary graph
// file pair ("-push"/"-pull" suffixes added automatically), -n the thread
// count, -N the PageRank iteration count, -s the scheduling granularity,
// -u the (simulated) socket count, and -o an optional per-vertex output
// file. Execution statistics, including the PageRank Sum correctness check,
// are printed to standard output.
//
// `grazelle serve` instead starts the JSON-over-HTTP service (see serve.go);
// `grazelle version` prints the build and the gather kernel this machine
// selects.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	grazelle "repro"
	"repro/internal/vec"
)

func main() {
	if len(os.Args) > 1 {
		var sub func([]string) error
		switch os.Args[1] {
		case "serve":
			sub = runServe
		case "worker":
			sub = runWorker
		case "router":
			sub = runRouter
		case "version":
			sub = runVersion
		}
		if sub != nil {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "grazelle:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "grazelle:", err)
		os.Exit(1)
	}
}

// versionInfo is what `grazelle version` prints: the toolchain and target
// of the build, and the rank-sum gather kernel selected on this machine
// ("avx2" or "go") — the same value /v1/stats and every run record carry.
func versionInfo() map[string]string {
	return map[string]string{
		"go":     runtime.Version(),
		"os":     runtime.GOOS,
		"arch":   runtime.GOARCH,
		"kernel": vec.Kernel(),
	}
}

func runVersion([]string) error {
	return json.NewEncoder(os.Stdout).Encode(versionInfo())
}

func run() error {
	var (
		input   = flag.String("i", "", "input graph file pair base path (required unless -d)")
		dataset = flag.String("d", "", "generate a dataset analog instead of loading (C,D,L,T,F,U or full name)")
		scale   = flag.Float64("scale", 1.0, "dataset analog scale factor (with -d)")
		app     = flag.String("a", "pr", "application by registry name, or \"list\" to enumerate")
		threads = flag.Int("n", 0, "total worker threads (0 = GOMAXPROCS)")
		iters   = flag.Int("N", 1, "iteration count for iteration-bounded apps")
		gran    = flag.Int("s", 0, "scheduling granularity in edge vectors per chunk (0 = 32 chunks/thread)")
		sockets = flag.Int("u", 1, "simulated NUMA socket count")
		output  = flag.String("o", "", "write per-vertex results to this file")
		root    = flag.Uint("r", 0, "root vertex for rooted apps (bfs, sssp, ppr)")
		kcore   = flag.Int("k", 2, "core threshold for kcore")
		variant = flag.String("variant", "sa", "vectorized pull variant: sa, trad, tradna")
		mode    = flag.String("engine", "hybrid", "engine mode: hybrid, pull, push")
		scalar  = flag.Bool("scalar", false, "disable the vectorized kernels")
		record  = flag.Bool("counters", false, "collect and print execution counters")
	)
	flag.Parse()

	if strings.ToLower(*app) == "list" {
		return listApps()
	}

	var g *grazelle.Graph
	var err error
	switch {
	case *dataset != "":
		g, err = grazelle.GenerateDataset(*dataset, *scale)
	case *input != "":
		g, err = grazelle.LoadGraphPair(*input)
	default:
		return fmt.Errorf("one of -i or -d is required (-h for help)")
	}
	if err != nil {
		return err
	}
	fmt.Printf("Graph: %d vertices, %d edges, packing efficiency %.1f%%\n",
		g.NumVertices(), g.NumEdges(), 100*g.PackingEfficiency())

	opt := grazelle.Options{
		Workers:      *threads,
		Sockets:      *sockets,
		ChunkVectors: *gran,
		Scalar:       *scalar,
		Record:       *record,
	}
	switch strings.ToLower(*variant) {
	case "sa":
		opt.Variant = grazelle.SchedulerAware
	case "trad":
		opt.Variant = grazelle.Traditional
	case "tradna":
		opt.Variant = grazelle.TraditionalNonatomic
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if opt.Scalar && opt.Variant != grazelle.SchedulerAware {
		return fmt.Errorf("-scalar runs the scheduler-aware pull only, not -variant %s", *variant)
	}
	switch strings.ToLower(*mode) {
	case "hybrid":
		opt.Mode = grazelle.Hybrid
	case "pull":
		opt.Mode = grazelle.PullOnly
	case "push":
		opt.Mode = grazelle.PushOnly
	default:
		return fmt.Errorf("unknown engine mode %q", *mode)
	}

	e := grazelle.NewEngine(g, opt)
	defer e.Close()

	// Params flow through the registry entry's schema: fields the app
	// ignores are dropped, and -N keeps its historical default of 1
	// iteration (the ZeroUnused path, not Normalize, so an explicit value
	// is always honored).
	res, err := e.Run(context.Background(), strings.ToLower(*app),
		grazelle.Params{Iters: *iters, Root: uint32(*root), K: *kcore})
	if err != nil {
		return err
	}
	for _, st := range res.Summary() {
		fmt.Printf("%s: %s\n", st.Label, st.Text)
	}
	stats := res.Stats

	fmt.Printf("Iterations: %d (pull %d, push %d)\n",
		stats.Iterations, stats.PullIterations, stats.PushIterations)
	fmt.Printf("Running Time: %v (edge %v, vertex %v)\n",
		stats.Total, stats.EdgeTime, stats.VertexTime)
	if *record {
		c := stats.EdgeCounters
		fmt.Printf("Edge counters: edges=%d vectors=%d tlsWrites=%d sharedWrites=%d atomics=%d casRetries=%d mergeOps=%d frontierSkips=%d local=%d remote=%d\n",
			c.EdgesProcessed, c.VectorsProcessed, c.TLSWrites, c.SharedWrites,
			c.AtomicOps, c.CASRetries, c.MergeOps, c.FrontierSkips,
			c.LocalAccesses, c.RemoteAccesses)
	}

	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for v := 0; v < g.NumVertices(); v++ {
			fmt.Fprintf(w, "%d %s\n", v, res.VertexText(v))
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// listApps prints the registry: one line per app with its parameter schema.
func listApps() error {
	for _, info := range grazelle.Apps() {
		params := "-"
		if len(info.Params) > 0 {
			parts := make([]string, 0, len(info.Params))
			for _, p := range info.Params {
				if d, ok := info.Defaults[p]; ok {
					parts = append(parts, fmt.Sprintf("%s (default %d)", p, d))
				} else {
					parts = append(parts, p)
				}
			}
			params = strings.Join(parts, ", ")
		}
		weighted := ""
		if info.NeedsWeights {
			weighted = " [weighted graph required]"
		}
		fmt.Printf("%-6s %-22s params: %s%s\n       %s\n",
			info.Name, info.Title, params, weighted, info.Description)
	}
	return nil
}
