package harness

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// BenchResult is one (dataset, application) timing row of a machine-readable
// benchmark snapshot (see BenchJSON).
type BenchResult struct {
	Dataset        string  `json:"dataset"`
	App            string  `json:"app"`
	Vertices       int     `json:"vertices"`
	Edges          int     `json:"edges"`
	Iterations     int     `json:"iterations"`
	TotalNS        int64   `json:"total_ns"`
	PerIterationNS float64 `json:"per_iteration_ns"`
	EdgeNS         int64   `json:"edge_ns"`
	VertexNS       int64   `json:"vertex_ns"`
}

// TraceOverheadResult is one dataset's Fig 5 pull kernel timed with the
// phase tracer off and on. DESIGN.md §10 budgets tracing at 5% of untraced
// wall time; Ratio > 1.05 is a regression.
type TraceOverheadResult struct {
	Dataset  string  `json:"dataset"`
	BaseNS   int64   `json:"base_ns"`
	TracedNS int64   `json:"traced_ns"`
	Ratio    float64 `json:"ratio"`
}

// RegistryABResult is one (dataset, app) A/B row comparing the direct typed
// constructor path with registry dispatch (Lookup + Entry.New + the generic
// run). The indirection is one map lookup and an interface-typed
// constructor per run, so Ratio should sit at 1.0 within noise.
type RegistryABResult struct {
	Dataset    string  `json:"dataset"`
	App        string  `json:"app"`
	DirectNS   int64   `json:"direct_ns"`
	RegistryNS int64   `json:"registry_ns"`
	Ratio      float64 `json:"ratio"`
}

// BenchSnapshot is the top-level JSON document emitted by BenchJSON — the
// perf-trajectory baseline checked in as BENCH_<pr>.json.
type BenchSnapshot struct {
	GeneratedUnix int64                 `json:"generated_unix"`
	Workers       int                   `json:"workers"`
	Scale         float64               `json:"scale"`
	Results       []BenchResult         `json:"results"`
	TraceOverhead []TraceOverheadResult `json:"trace_overhead,omitempty"`
	RegistryAB    []RegistryABResult    `json:"registry_ab,omitempty"`
	PartitionAB   []PartitionABResult   `json:"partition_ab,omitempty"`
	WALBench      []WALBenchResult      `json:"wal_bench,omitempty"`
	IncrementalAB []IncrementalABResult `json:"incremental_ab,omitempty"`
}

// registryBenchApps are the registry-dispatched apps benchmarked on the
// paper's T/U/D analogs alongside the direct PR/CC/BFS rows.
var registryBenchApps = []string{"tc", "kcore", "lp", "ppr"}

// registryABApps are the hot-path apps the registry indirection A/B covers.
var registryABApps = []string{"pr", "cc", "bfs"}

// tudDataset reports whether d is one of the Table 1 T/U/D analogs the new
// per-app rows cover.
func tudDataset(abbrev string) bool {
	return abbrev == "T" || abbrev == "U" || abbrev == "D"
}

// BenchJSON measures PageRank, Connected Components, and BFS on the config's
// datasets with the paper-default engine — plus, on the T/U/D analogs, the
// registry-dispatched tc/kcore/lp/ppr apps and a direct-vs-registry A/B of
// the PR/CC/BFS hot path — and writes one JSON document to w. Timing
// follows the harness convention: best of Config.Repeats, and per-iteration
// time is total/iterations (the Fig 11 metric).
func BenchJSON(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	snap := BenchSnapshot{
		GeneratedUnix: time.Now().Unix(),
		Workers:       cfg.Workers,
		Scale:         cfg.Scale,
	}
	for _, d := range cfg.Datasets {
		g := cfg.DatasetGraph(d)
		cg := cfg.DatasetCoreGraph(d)
		r := core.NewRunner(cg, core.Options{Workers: cfg.Workers})
		type appCase struct {
			name string
			run  func() core.Result
		}
		cases := []appCase{
			{"pr", func() core.Result { return core.Run(r, apps.NewPageRank(g), cfg.PRIters) }},
			{"cc", func() core.Result { return core.Run(r, apps.NewConnComp(), 1<<20) }},
			{"bfs", func() core.Result { return core.Run(r, apps.NewBFS(0), 1<<20) }},
		}
		// The four registry-era apps ride the same Fig 5 harness on the
		// T/U/D analogs, dispatched exactly the way serve does: Lookup,
		// Normalize, Entry.New. Programs with heavyweight constructors
		// (tc's adjacency build) are constructed outside the timed region —
		// the rows measure the engine, not preprocessing.
		if tudDataset(string(d.Abbrev())) {
			for _, name := range registryBenchApps {
				ent, err := apps.Lookup(name)
				if err != nil {
					return err
				}
				p := ent.Normalize(apps.Params{Iters: cfg.PRIters})
				prog, err := ent.New(g, p)
				if err != nil {
					return err
				}
				max := ent.MaxIters(p)
				cases = append(cases, appCase{name, func() core.Result {
					return core.Run(r, prog, max)
				}})
			}
		}
		for _, c := range cases {
			var res core.Result
			best := cfg.timeBest(func() { res = c.run() })
			iters := res.Iterations
			if iters < 1 {
				iters = 1
			}
			snap.Results = append(snap.Results, BenchResult{
				Dataset:        string(d.Abbrev()),
				App:            c.name,
				Vertices:       g.NumVertices,
				Edges:          g.NumEdges(),
				Iterations:     res.Iterations,
				TotalNS:        best.Nanoseconds(),
				PerIterationNS: float64(best.Nanoseconds()) / float64(iters),
				EdgeNS:         res.EdgeTime.Nanoseconds(),
				VertexNS:       res.VertexTime.Nanoseconds(),
			})
		}

		// Registry-indirection A/B on the hot path: the direct typed
		// constructors against Lookup + Entry.New for the same runs.
		if tudDataset(string(d.Abbrev())) {
			direct := map[string]func() core.Result{
				"pr":  func() core.Result { return core.Run(r, apps.NewPageRank(g), cfg.PRIters) },
				"cc":  func() core.Result { return core.Run(r, apps.NewConnComp(), 1<<20) },
				"bfs": func() core.Result { return core.Run(r, apps.NewBFS(0), 1<<20) },
			}
			for _, name := range registryABApps {
				ent, err := apps.Lookup(name)
				if err != nil {
					return err
				}
				p := ent.Normalize(apps.Params{Iters: cfg.PRIters})
				run := direct[name]
				directNS := cfg.timeBest(func() { run() }).Nanoseconds()
				viaNS := cfg.timeBest(func() {
					prog, err := ent.New(g, p)
					if err != nil {
						return
					}
					core.Run(r, prog, ent.MaxIters(p))
				}).Nanoseconds()
				snap.RegistryAB = append(snap.RegistryAB, RegistryABResult{
					Dataset:    string(d.Abbrev()),
					App:        name,
					DirectNS:   directNS,
					RegistryNS: viaNS,
					Ratio:      float64(viaNS) / float64(directNS),
				})
			}
		}
		r.Close()

		// Trace-overhead row: the Fig 5 pull kernel (PageRank, pull-only,
		// 1000 vectors/chunk) with the phase tracer off, then on.
		var walls [2]time.Duration
		for i, trace := range []bool{false, true} {
			rt := core.NewRunner(cg, core.Options{
				Workers: cfg.Workers, Mode: core.EnginePullOnly,
				ChunkVectors: 1000, Trace: trace,
			})
			walls[i] = cfg.timeBest(func() { core.Run(rt, apps.NewPageRank(g), cfg.PRIters) })
			rt.Close()
		}
		snap.TraceOverhead = append(snap.TraceOverhead, TraceOverheadResult{
			Dataset:  string(d.Abbrev()),
			BaseNS:   walls[0].Nanoseconds(),
			TracedNS: walls[1].Nanoseconds(),
			Ratio:    float64(walls[1].Nanoseconds()) / float64(walls[0].Nanoseconds()),
		})
	}
	if cfg.PartitionAB {
		rows, err := PartitionAB(cfg)
		if err != nil {
			return err
		}
		snap.PartitionAB = rows
	}
	if cfg.WALBench {
		rows, err := WALBench(cfg)
		if err != nil {
			return err
		}
		snap.WALBench = rows
	}
	if cfg.IncrementalAB {
		rows, err := IncrementalAB(cfg)
		if err != nil {
			return err
		}
		snap.IncrementalAB = rows
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
