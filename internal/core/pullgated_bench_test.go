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
// ns/vector is the per-vector price of predication that kernel-frontier's
// mesh cc pays 258 iterations in a row, visible here without a 15 s bench
// window.
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
