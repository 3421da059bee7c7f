package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/gen"
)

// BenchmarkPullFrontierGated times one Edge-Pull phase of cc per operation
// with the frontier seeded to a fixed density, on the road-mesh analog (every
// destination is one partly filled vector) and on the R-MAT analog (long,
// full runs), and reports the cost per Vector-Sparse vector. A context driven
// phase by phase has completed no iteration, so these are the synchronous
// rounds every cc run starts with — the first inPlaceAfter pulls, and every
// pull of a run whose rounds are not in place (BenchmarkInPlaceCC times the
// whole run). Each density has three rows: the shipped chunk walk on the
// selected kernel (vec.MinPropChunk, one call per chunk, its gathers making
// the frontier test), the same walk on the Go twin (AblateSIMD), and the
// vector-by-vector walk it replaced (AblateFullVector: a frontier test, a
// live-lane walk and a destination test per vector). cc neither converges nor
// saturates, so every vector is visited; at density 1.0 the round runs
// ungated.
func BenchmarkPullFrontierGated(b *testing.B) {
	for _, d := range []gen.Dataset{gen.DimacsUSA, gen.Twitter} {
		// The mesh at kernel-frontier's scale (23 k vectors, so pool dispatch
		// does not dominate an operation); the R-MAT analog at scale 1 keeps
		// the CI smoke run short.
		scale := 1.0
		if d == gen.DimacsUSA {
			scale = 4
		}
		cg := BuildGraph(gen.Generate(d, scale))
		for _, density := range []float64{1.0, 0.5, 0.1} {
			for _, k := range []struct {
				name string
				opt  Options
			}{
				{"kernel", Options{}},
				{"twin", Options{AblateSIMD: true}},
				{"walk", Options{AblateFullVector: true}},
			} {
				b.Run(fmt.Sprintf("%s/density%.1f/%s", d.Abbrev(), density, k.name), func(b *testing.B) {
					k.opt.Workers, k.opt.Mode = 1, EnginePullOnly
					r := NewRunner(cg, k.opt)
					defer r.Close()
					p := apps.NewConnComp()
					ec := r.NewContext()
					ec.Init(p)
					ec.front.Clear()
					rng := rand.New(rand.NewSource(18))
					for v := 0; v < cg.N; v++ {
						if density >= 1 || rng.Float64() < density {
							ec.front.Add(uint32(v))
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						RunEdgePull(ec, p)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cg.VSD.NumVectors()), "ns/vector")
				})
			}
		}
	}
}

// BenchmarkInPlaceCC times whole runs of cc on the road mesh at
// kernel-frontier's scale and on the two skewed analogs, at one and two
// workers, and reports the run's iteration count beside ms/run: the mesh is
// where in-place pull turns a diameter's worth of barriers into spans + 1,
// the skewed graphs (a handful of iterations either way) are where it must
// cost nothing. Each has three rows, as BenchmarkPullFrontierGated does: the
// shipped chunk walk on the selected kernel (every round one vec.MinPropChunk
// call per chunk, in-place rounds ungated with the window on), the same walk
// on the Go twin (AblateSIMD), and the gated vector-by-vector walk
// (AblateFullVector). vertex_ms/run is the part of a run its Vertex phases
// took (Result.VertexTime): on the mesh, where every round applies most
// vertices, it is what the Vertex arm of cc's fused kind saves. T8 and U4 are
// the bench's own sizes, for paired runs against a parent checkout; CI runs
// the three small ones.
func BenchmarkInPlaceCC(b *testing.B) {
	for _, c := range []struct {
		name  string
		d     gen.Dataset
		scale float64
	}{
		{"D4", gen.DimacsUSA, 4}, {"T1", gen.Twitter, 1}, {"U1", gen.UK2007, 1},
		{"T8", gen.Twitter, 8}, {"U4", gen.UK2007, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			cg := BuildGraph(gen.Generate(c.d, c.scale))
			for _, workers := range []int{1, 2} {
				for _, k := range []struct {
					name string
					opt  Options
				}{
					{"kernel", Options{}},
					{"twin", Options{AblateSIMD: true}},
					{"walk", Options{AblateFullVector: true}},
				} {
					b.Run(fmt.Sprintf("w%d/%s", workers, k.name), func(b *testing.B) {
						k.opt.Workers = workers
						r := NewRunner(cg, k.opt)
						defer r.Close()
						var res Result
						var vertex time.Duration
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							res = Run(r, apps.NewConnComp(), 1<<30)
							vertex += res.VertexTime
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/run")
						b.ReportMetric(float64(vertex.Nanoseconds())/float64(b.N)/1e6, "vertex_ms/run")
						b.ReportMetric(float64(res.Iterations), "iterations")
					})
				}
			}
		})
	}
}

// BenchmarkMeshBFS times whole bfs runs on the road mesh at kernel-frontier's
// scale, at one and two workers, from four roots spread over the vertex ids.
// A mesh search is hundreds of list-driven rounds of a few hundred vertices,
// so its Vertex phase is runVertexSparse's inline loop, which the Vertex arm
// of bfs's fused kind serves; ms/run and vertex_ms/run are per search.
func BenchmarkMeshBFS(b *testing.B) {
	cg := BuildGraph(gen.Generate(gen.DimacsUSA, 4))
	roots := []uint32{0, uint32(cg.N / 3), uint32(2 * cg.N / 3), uint32(cg.N - 1)}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("D4/w%d", workers), func(b *testing.B) {
			r := NewRunner(cg, Options{Workers: workers})
			defer r.Close()
			var vertex time.Duration
			iterations := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, root := range roots {
					res := Run(r, apps.NewBFS(root), 1<<30)
					vertex += res.VertexTime
					iterations += res.Iterations
				}
			}
			runs := float64(b.N * len(roots))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs/1e6, "ms/run")
			b.ReportMetric(float64(vertex.Nanoseconds())/runs/1e6, "vertex_ms/run")
			b.ReportMetric(float64(iterations)/runs, "iterations")
		})
	}
}
