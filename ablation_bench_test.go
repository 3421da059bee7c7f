// Ablation benchmarks for the design choices DESIGN.md calls out: the
// 32-chunks-per-thread scheduling granularity (§5), the fused full-vector
// fast path of the pull kernel, the sparse-frontier extension, the
// granularity sensitivity of a frontier application, and the merge-buffer
// fold.
package grazelle

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sched"
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

// BenchmarkAblationChunksPerWorker sweeps the chunks-per-thread choice
// around the paper's 32 (too few chunks → load imbalance on skewed inputs;
// too many → scheduling and merge overhead).
func BenchmarkAblationChunksPerWorker(b *testing.B) {
	g, cg := benchGraph(b, gen.UK2007)
	for _, perWorker := range []int{2, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("chunks%dn", perWorker), func(b *testing.B) {
			total := cg.VSD.NumVectors()
			chunk := sched.ChunkSize(total, perWorker*2)
			r := core.NewRunner(cg, core.Options{ChunkVectors: chunk, Mode: core.EnginePullOnly})
			defer r.Close()
			p := apps.NewPageRank(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Run(r, p, 1)
			}
			reportEdges(b, g.NumEdges())
		})
	}
}

// BenchmarkAblationFullVectorPath compares the pull kernel with and without
// the fused full-vector fast path — for PageRank, the run-span gather of
// pullSpanBody — against per-lane predication everywhere when ablated.
func BenchmarkAblationFullVectorPath(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	for _, ablate := range []bool{false, true} {
		name := "fast-path"
		if ablate {
			name = "ablated"
		}
		b.Run(name, func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{Mode: core.EnginePullOnly, AblateFullVector: ablate})
			defer r.Close()
			p := apps.NewPageRank(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Run(r, p, 1)
			}
			reportEdges(b, g.NumEdges())
		})
	}
}

// BenchmarkAblationSparseFrontier measures frontier-proportional iterations
// (the list-driven round §5 leaves to future work, plus early-exit pull)
// against the paper configuration on the workloads they target: BFS over
// the high-diameter mesh, where dense engines rescan the whole edge array
// for ~150 one-vertex rounds, and BFS over the skewed T analog, where the
// time is in dense pull.
func BenchmarkAblationSparseFrontier(b *testing.B) {
	for _, d := range []gen.Dataset{gen.DimacsUSA, gen.Twitter} {
		_, cg := benchGraph(b, d)
		for _, ablate := range []bool{true, false} {
			name := "shipped"
			if ablate {
				name = "paper"
			}
			b.Run(d.Abbrev()+"/"+name, func(b *testing.B) {
				r := core.NewRunner(cg, core.Options{AblateFrontierWork: ablate})
				defer r.Close()
				for i := 0; i < b.N; i++ {
					core.Run(r, apps.NewBFS(0), 1<<20)
				}
			})
		}
	}
}

// BenchmarkAblationSchedulerGranularityCC reruns the Fig 6 sensitivity
// question for a frontier application (Connected Components) rather than
// PageRank.
func BenchmarkAblationSchedulerGranularityCC(b *testing.B) {
	g, cg := benchGraph(b, gen.Twitter)
	for _, gran := range []int{50, 500, 5000} {
		for _, variant := range []core.PullVariant{core.PullTraditional, core.PullSchedulerAware} {
			b.Run(fmt.Sprintf("gran%d/%s", gran, variant), func(b *testing.B) {
				r := core.NewRunner(cg, core.Options{ChunkVectors: gran, Variant: variant})
				defer r.Close()
				for i := 0; i < b.N; i++ {
					core.Run(r, apps.NewConnComp(), 1<<20)
				}
				reportEdges(b, g.NumEdges())
			})
		}
	}
}

// BenchmarkAblationMergeCost isolates the merge-buffer fold (Listing 6) by
// running the scheduler-aware engine at extreme granularities: tiny chunks
// maximize merge-buffer slots, so the spread bounds the merge overhead the
// paper calls "extremely fast".
func BenchmarkAblationMergeCost(b *testing.B) {
	g, cg := benchGraph(b, gen.Friendster)
	for _, chunk := range []int{16, 16384} {
		b.Run(fmt.Sprintf("chunk%d", chunk), func(b *testing.B) {
			r := core.NewRunner(cg, core.Options{ChunkVectors: chunk, Mode: core.EnginePullOnly})
			defer r.Close()
			p := apps.NewPageRank(g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Run(r, p, 1)
			}
			reportEdges(b, g.NumEdges())
		})
	}
}
