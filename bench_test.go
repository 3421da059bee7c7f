// Benchmarks, one group per table/figure of the paper's evaluation. Each
// benchmark exercises the exact kernel its figure measures, at reduced
// analog scale so `go test -bench=.` completes quickly; cmd/benchfig runs
// the same experiments at full scale and prints the paper-shaped tables.
package grazelle

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/baselines"
	"repro/internal/baselines/ligra"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numa"
	"repro/internal/vsparse"
)

const benchScale = 0.25

var (
	benchMu     sync.Mutex
	benchGraphs = map[gen.Dataset]*graph.Graph{}
	benchCores  = map[gen.Dataset]*core.Graph{}
)

func benchGraph(b *testing.B, d gen.Dataset) (*graph.Graph, *core.Graph) {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if _, ok := benchGraphs[d]; !ok {
		g := gen.Generate(d, benchScale)
		benchGraphs[d] = g
		benchCores[d] = core.BuildGraph(g)
	}
	return benchGraphs[d], benchCores[d]
}

func reportEdges(b *testing.B, edgesPerOp int) {
	b.ReportMetric(float64(edgesPerOp), "edges/op")
}

// BenchmarkTable1 measures dataset analog generation (the substitute for
// loading the paper's Table 1 inputs).
func BenchmarkTable1(b *testing.B) {
	for _, d := range gen.AllDatasets {
		b.Run(d.Abbrev(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := gen.Generate(d, 0.05)
				if g.NumEdges() == 0 {
					b.Fatal("empty analog")
				}
			}
		})
	}
}

// BenchmarkFig1 measures one PageRank round under each of Ligra's loop
// parallelization configurations on the twitter analog (the introduction's
// motivating comparison).
func BenchmarkFig1(b *testing.B) {
	g, _ := benchGraph(b, gen.Twitter)
	for _, lc := range []ligra.LoopConfig{ligra.PushS, ligra.PushP, ligra.PushPPullS, ligra.PushPPullP} {
		b.Run(lc.String(), func(b *testing.B) {
			fw := baselines.NewLigraLoops(g, 0, lc)
			defer fw.Close()
			p := apps.NewPageRank(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Run(p, 1)
			}
			reportEdges(b, g.NumEdges())
		})
	}
}

// benchPullVariant measures one pull-engine PageRank iteration under a
// given variant, kernel, and granularity.
func benchPullVariant(b *testing.B, d gen.Dataset, variant core.PullVariant, scalar bool, gran, workers int) {
	benchPullTraced(b, d, variant, scalar, gran, workers, false)
}

func benchPullTraced(b *testing.B, d gen.Dataset, variant core.PullVariant, scalar bool, gran, workers int, trace bool) {
	b.Helper()
	g, cg := benchGraph(b, d)
	r := core.NewRunner(cg, core.Options{
		Workers: workers, Variant: variant, Scalar: scalar,
		ChunkVectors: gran, Mode: core.EnginePullOnly, Trace: trace,
	})
	defer r.Close()
	p := apps.NewPageRank(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(r, p, 1)
	}
	reportEdges(b, g.NumEdges())
}

// BenchmarkFig5 compares the three scheduler interfaces at the fixed
// Fig 5 granularity of 1000 vectors/chunk on each dataset analog.
func BenchmarkFig5(b *testing.B) {
	for _, d := range gen.AllDatasets {
		for _, v := range []core.PullVariant{core.PullTraditional, core.PullTraditionalNonatomic, core.PullSchedulerAware} {
			b.Run(d.Abbrev()+"/"+v.String(), func(b *testing.B) {
				benchPullVariant(b, d, v, false, 1000, 0)
			})
		}
	}
}

// BenchmarkFig5Traced repeats the Fig 5 matrix with the phase tracer on.
// The tracer's budget (DESIGN.md §10) is 5% over the untraced runs: it
// costs two clock reads per phase boundary and one atomic add per chunk,
// never per-edge work.
func BenchmarkFig5Traced(b *testing.B) {
	for _, d := range gen.AllDatasets {
		for _, v := range []core.PullVariant{core.PullTraditional, core.PullTraditionalNonatomic, core.PullSchedulerAware} {
			b.Run(d.Abbrev()+"/"+v.String(), func(b *testing.B) {
				benchPullTraced(b, d, v, false, 1000, 0, true)
			})
		}
	}
}

// BenchmarkFig6 sweeps the scheduling granularity on the uk-2007 analog.
func BenchmarkFig6(b *testing.B) {
	for _, gran := range []int{100, 1000, 10000} {
		for _, v := range []core.PullVariant{core.PullTraditional, core.PullSchedulerAware} {
			b.Run(fmt.Sprintf("gran%d/%s", gran, v), func(b *testing.B) {
				benchPullVariant(b, gen.UK2007, v, false, gran, 0)
			})
		}
	}
}

// BenchmarkFig7 sweeps the worker count for both interfaces on the twitter
// analog.
func BenchmarkFig7(b *testing.B) {
	for _, w := range []int{1, 2} {
		for _, v := range []core.PullVariant{core.PullTraditional, core.PullSchedulerAware} {
			b.Run(fmt.Sprintf("w%d/%s", w, v), func(b *testing.B) {
				benchPullVariant(b, gen.Twitter, v, false, 5000, w)
			})
		}
	}
}

// BenchmarkFig8 measures Connected Components (standard and write-intense)
// under the three interfaces on the livejournal analog.
func BenchmarkFig8(b *testing.B) {
	g, cg := benchGraph(b, gen.LiveJournal)
	for _, wi := range []bool{true, false} {
		name := "standard"
		prog := func() *apps.ConnComp { return apps.NewConnComp() }
		if wi {
			name = "write-intense"
			prog = func() *apps.ConnComp { return apps.NewConnCompWriteIntense() }
		}
		for _, v := range []core.PullVariant{core.PullTraditional, core.PullSchedulerAware} {
			b.Run(name+"/"+v.String(), func(b *testing.B) {
				r := core.NewRunner(cg, core.Options{Variant: v})
				defer r.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					core.Run(r, prog(), 1<<20)
				}
				reportEdges(b, g.NumEdges())
			})
		}
	}
}

// BenchmarkFig9 measures Vector-Sparse encoding and the packing-efficiency
// computation for the three vector widths.
func BenchmarkFig9(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := vsparse.FromCSR(cg.CSC)
			if a.ValidEdges != g.NumEdges() {
				b.Fatal("encode lost edges")
			}
		}
		reportEdges(b, g.NumEdges())
	})
	deg := g.InDegrees()
	for _, lanes := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("efficiency%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if vsparse.PackingEfficiencyForLanes(deg, lanes) <= 0 {
					b.Fatal("bad efficiency")
				}
			}
		})
	}
}

// BenchmarkFig10Phase measures each Grazelle phase in isolation, scalar vs
// vectorized (Fig 10a).
func BenchmarkFig10Phase(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	p := apps.NewPageRank(g)
	for _, scalar := range []bool{true, false} {
		kernel := "vectorized"
		if scalar {
			kernel = "scalar"
		}
		b.Run("Edge-Pull/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar, Mode: core.EnginePullOnly})
			defer r.Close()
			ec := r.NewContext()
			ec.Init(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunEdgePull(ec, p)
			}
			reportEdges(b, g.NumEdges())
		})
		b.Run("Edge-Push/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar, Mode: core.EnginePushOnly})
			defer r.Close()
			ec := r.NewContext()
			ec.Init(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunEdgePush(ec, p)
			}
			reportEdges(b, g.NumEdges())
		})
		b.Run("Vertex/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar})
			defer r.Close()
			ec := r.NewContext()
			ec.Init(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RunVertex(ec, p)
			}
		})
	}
}

// BenchmarkFig10App measures end-to-end application runs, scalar vs
// vectorized (Fig 10b).
func BenchmarkFig10App(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	for _, scalar := range []bool{true, false} {
		kernel := "vectorized"
		if scalar {
			kernel = "scalar"
		}
		b.Run("PR/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar})
			defer r.Close()
			for i := 0; i < b.N; i++ {
				core.Run(r, apps.NewPageRank(g), 4)
			}
			reportEdges(b, 4*g.NumEdges())
		})
		// The frontier applications pin the paper configuration, as the
		// harness's Fig 10b does: the list-driven round is one vectorized
		// kernel that both arms would otherwise share.
		b.Run("CC/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar, AblateFrontierWork: true})
			defer r.Close()
			for i := 0; i < b.N; i++ {
				core.Run(r, apps.NewConnComp(), 1<<20)
			}
		})
		b.Run("BFS/"+kernel, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Scalar: scalar, AblateFrontierWork: true})
			defer r.Close()
			for i := 0; i < b.N; i++ {
				core.Run(r, apps.NewBFS(0), 1<<20)
			}
		})
	}
}

// benchFrameworks enumerates the Figs 11–13 competitors on one graph.
func benchFrameworks(b *testing.B, g *graph.Graph, cg *core.Graph) map[string]func(p apps.Program, iters int) {
	b.Helper()
	out := map[string]func(p apps.Program, iters int){}
	out["Grazelle-Pull"] = func(p apps.Program, iters int) {
		r := core.NewRunner(cg, core.Options{Mode: core.EnginePullOnly})
		defer r.Close()
		core.Run(r, p, iters)
	}
	out["Grazelle-Hybrid"] = func(p apps.Program, iters int) {
		r := core.NewRunner(cg, core.Options{})
		defer r.Close()
		core.Run(r, p, iters)
	}
	mk := func(f baselines.Framework) func(p apps.Program, iters int) {
		return func(p apps.Program, iters int) {
			defer f.Close()
			f.Run(p, iters)
		}
	}
	_ = mk
	out["Ligra"] = func(p apps.Program, iters int) {
		f := baselines.NewLigra(g, 0)
		defer f.Close()
		f.Run(p, iters)
	}
	out["Ligra-Dense"] = func(p apps.Program, iters int) {
		f := baselines.NewLigraDense(g, 0)
		defer f.Close()
		f.Run(p, iters)
	}
	out["Polymer"] = func(p apps.Program, iters int) {
		f := baselines.NewPolymer(g, numa.Topology{})
		defer f.Close()
		f.Run(p, iters)
	}
	out["GraphMat"] = func(p apps.Program, iters int) {
		f, err := baselines.NewGraphMat(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		f.Run(p, iters)
	}
	out["X-Stream"] = func(p apps.Program, iters int) {
		f := baselines.NewXStream(g, 0)
		defer f.Close()
		f.Run(p, iters)
	}
	return out
}

var frameworkOrder = []string{"Grazelle-Pull", "Grazelle-Hybrid", "Ligra", "Ligra-Dense", "Polymer", "GraphMat", "X-Stream"}

// BenchmarkFig11 compares frameworks on PageRank (twitter analog).
func BenchmarkFig11(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	fws := benchFrameworks(b, g, cg)
	for _, name := range frameworkOrder {
		run := fws[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(apps.NewPageRank(g), 2)
			}
			reportEdges(b, 2*g.NumEdges())
		})
	}
}

// BenchmarkFig12 compares frameworks on Connected Components.
func BenchmarkFig12(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	fws := benchFrameworks(b, g, cg)
	for _, name := range frameworkOrder {
		run := fws[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(apps.NewConnComp(), 1<<20)
			}
		})
	}
}

// BenchmarkFig13 compares frameworks on BFS.
func BenchmarkFig13(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	fws := benchFrameworks(b, g, cg)
	for _, name := range frameworkOrder {
		run := fws[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run(apps.NewBFS(0), 1<<20)
			}
		})
	}
}

// BenchmarkTable2 runs PageRank at the artifact's suggested iteration scale
// on the smallest analog (the remaining figures already cover the rest).
func BenchmarkTable2(b *testing.B) {
	g, cg := benchGraph(b, gen.CitPatents)
	r := core.NewRunner(cg, core.Options{})
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Run(r, apps.NewPageRank(g), 16)
	}
	reportEdges(b, 16*g.NumEdges())
}
