package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/gen"
)

// BenchmarkPullFrontierGated times one Edge-Pull phase of cc per operation
// with the frontier seeded to a fixed density, on the road-mesh analog (every
// destination is one partly filled vector) and on the R-MAT analog (long,
// full runs), and reports the cost per Vector-Sparse vector. cc neither
// converges nor saturates, so every vector is visited and frontier-tested
// (except at density 1.0, which the shipped kernel runs unpredicated):
// ns/vector is the per-vector price of predication, visible here without a
// 15 s bench window. A context driven phase by phase has completed no
// iteration, so these are the synchronous rounds every cc run starts with —
// all 305 of the mesh's before in-place pull, the first inPlaceAfter since
// (BenchmarkInPlaceCC times the whole run).
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
			b.Run(fmt.Sprintf("%s/density%.1f", d.Abbrev(), density), func(b *testing.B) {
				r := NewRunner(cg, Options{Workers: 1, Mode: EnginePullOnly})
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

// BenchmarkInPlaceCC times whole runs of cc in the shipped configuration on
// the road mesh at kernel-frontier's scale and on the two skewed analogs, at
// one and two workers, and reports the run's iteration count beside ms/run:
// the mesh is where in-place pull turns a diameter's worth of barriers into
// spans + 1, the skewed graphs (a handful of iterations either way) are where
// it must cost nothing. T8 and U4 are the bench's own sizes, for paired runs
// against a parent checkout; CI runs the three small ones.
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
				b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
					r := NewRunner(cg, Options{Workers: workers})
					defer r.Close()
					var res Result
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res = Run(r, apps.NewConnComp(), 1<<30)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/run")
					b.ReportMetric(float64(res.Iterations), "iterations")
				})
			}
		})
	}
}
