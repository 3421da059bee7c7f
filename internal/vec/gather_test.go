package vec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/testgraph"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// The selected kernel (the AVX2 assembly where the CPU has it) against the Go
// twin, bit for bit. On a purego build, or a CPU without AVX2, the two are
// the same function and the tests pass trivially; CI runs them on both.

// perEdgeRun is the sum as the two-gather kernel computed it before contrib
// existed: props[src]·scale[src] multiplied out on every edge, in the same
// lane-wise order. The one-gather kernels must reproduce it to the bit.
func perEdgeRun(words, props []uint64, scale []float64, weights []float32) float64 {
	var l [vec.Lanes]float64
	for i, w := range words {
		if w&vsparse.ValidBit == 0 {
			continue
		}
		n := w & vsparse.VertexMask
		term := float64(math.Float64frombits(props[n]) * scale[n])
		if weights != nil {
			term = float64(term * float64(weights[i]))
		}
		l[i%vec.Lanes] += term
	}
	return (l[0] + l[1]) + (l[2] + l[3])
}

// rankFixture is one set of kernel inputs over n vertices: positive ranks of
// mixed magnitude, 1/outdeg-like scales that are zero for every seventh vertex
// (a dangling source), and the contrib vector the engine derives from the two,
// one rounded product per vertex.
type rankFixture struct {
	props          []uint64
	scale, contrib []float64
}

func newRankFixture(n int, seed int64) rankFixture {
	rng := rand.New(rand.NewSource(seed))
	f := rankFixture{make([]uint64, n), make([]float64, n), make([]float64, n)}
	for v := range f.props {
		f.props[v] = math.Float64bits(rng.Float64() * math.Pow(10, float64(rng.Intn(9)-6)))
		if v%7 != 0 {
			f.scale[v] = 1 / float64(1+rng.Intn(1000))
		}
		f.contrib[v] = float64(math.Float64frombits(f.props[v]) * f.scale[v])
	}
	return f
}

// agree reports whether the selected kernel, the Go twin and the per-edge
// product all sum the span to the same bits.
func (f rankFixture) agree(words []uint64, weights []float32) (kernel, twin, perEdge uint64, ok bool) {
	kernel = math.Float64bits(vec.RankSumRun(words, f.contrib, weights))
	twin = math.Float64bits(vec.RankSumRunGo(words, f.contrib, weights))
	perEdge = math.Float64bits(perEdgeRun(words, f.props, f.scale, weights))
	return kernel, twin, perEdge, kernel == twin && twin == perEdge
}

func sameBits(t *testing.T, label string, f rankFixture, words []uint64, weights []float32) {
	t.Helper()
	if kernel, twin, perEdge, ok := f.agree(words, weights); !ok {
		t.Fatalf("%s: %s kernel %#x, Go twin %#x, per-edge product %#x", label, vec.Kernel(), kernel, twin, perEdge)
	}
}

// TestRankSumRunCorpus: every run of every corpus graph, whole and clipped at
// every vector boundary (a chunk edge can fall anywhere inside a run), plain
// and weighted — hub runs longer than a chunk, groups of one to four lanes,
// duplicate edges, self-loops, and destinations with no run at all.
func TestRankSumRunCorpus(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		g := c.WithWeights()
		a := vsparse.FromCSR(csr.FromGraph(g, true))
		f := newRankFixture(a.N, 5)
		for dst := 0; dst < a.N; dst++ {
			lo, hi := a.Index[dst], a.Index[dst+1]
			for cut := lo; cut <= hi; cut++ {
				for _, s := range [][2]int{{lo, cut}, {cut, hi}} {
					label := fmt.Sprintf("%s dst %d vectors [%d,%d)", c.Name, dst, s[0], s[1])
					words := a.Words[s[0]*vec.Lanes : s[1]*vec.Lanes]
					sameBits(t, label, f, words, nil)
					sameBits(t, label+" weighted", f, words, a.Weights[s[0]*vec.Lanes:s[1]*vec.Lanes])
				}
			}
		}
		// The span that ends on the last word of Words.
		if n := a.NumVectors(); n > 0 {
			sameBits(t, c.Name+" last vector", f, a.Words[(n-1)*vec.Lanes:], nil)
		}
	}
}

// TestRankSumRunQuick: random spans of 0 to 40 vectors whose every vector has
// a random valid prefix (all-partial spans included), random ids, and the
// span placed at the very end of its backing array, so a read past len would
// leave the allocation.
func TestRankSumRunQuick(t *testing.T) {
	const n = 97
	f := newRankFixture(n, 9)
	check := func(seed int64, nvec uint8, allPartial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		vectors := int(nvec) % 41
		words := make([]uint64, vectors*vec.Lanes)
		weights := make([]float32, len(words))
		for v := 0; v < vectors; v++ {
			valid := 1 + rng.Intn(vec.Lanes)
			if allPartial {
				valid = 1 + rng.Intn(vec.Lanes-1)
			}
			var ids [vec.Lanes]uint64
			for lane := range ids {
				ids[lane] = uint64(rng.Intn(n))
			}
			vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(uint64(rng.Intn(n)), ids, valid))
			for lane := 0; lane < valid; lane++ {
				weights[v*vec.Lanes+lane] = 0.5 + 9*rng.Float32()
			}
		}
		_, _, _, plain := f.agree(words, nil)
		_, _, _, weighted := f.agree(words, weights)
		return plain && weighted
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, vectors := range []uint8{0, 1} {
		if !check(1, vectors, false) || !check(2, vectors, true) {
			t.Errorf("kernels disagree on a span of %d vectors", vectors)
		}
	}
	if got := vec.RankSumRun(nil, f.contrib, nil); math.Float64bits(got) != 0 {
		t.Errorf("empty span sums to %v, want +0", got)
	}
}

// TestRankSumRunOrder pins the documented reduction order on a span where it
// matters: lane-wise partial sums folded (l0+l1)+(l2+l3), not a chain.
func TestRankSumRunOrder(t *testing.T) {
	vals := []float64{1, 1e-16, -1, 1e-16, 3, 1e-16, 1e-16, 1e-16}
	words := make([]uint64, len(vals))
	for v := 0; v < len(vals)/vec.Lanes; v++ {
		var ids [vec.Lanes]uint64
		for lane := range ids {
			ids[lane] = uint64(v*vec.Lanes + lane)
		}
		vec.Store(words, v*vec.Lanes, vsparse.EncodeVector(0, ids, vec.Lanes))
	}
	l0, l1, l2, l3 := vals[0]+vals[4], vals[1]+vals[5], vals[2]+vals[6], vals[3]+vals[7]
	want := (l0 + l1) + (l2 + l3)
	chain := 0.0
	for _, v := range vals {
		chain += v
	}
	if want == chain {
		t.Fatal("fixture does not tell the lane-wise order from a chain")
	}
	for name, f := range map[string]func([]uint64, []float64, []float32) float64{
		vec.Kernel(): vec.RankSumRun, "go twin": vec.RankSumRunGo,
	} {
		if got := f(words, vals, nil); got != want {
			t.Errorf("%s: %v, want (l0+l1)+(l2+l3) = %v", name, got, want)
		}
	}
}

// chainRun is the per-vector chain the pull kernel ran before RankSumRun:
// one running sum through all four lanes of every vector, the full-vector
// test first and a lane walk for partial vectors.
func chainRun(words, props []uint64, scale []float64) float64 {
	s := 0.0
	for i := 0; i+vec.Lanes <= len(words); i += vec.Lanes {
		v0, v1, v2, v3 := words[i], words[i+1], words[i+2], words[i+3]
		if (v0&v1&v2&v3)>>63 != 0 {
			n0, n1, n2, n3 := v0&vsparse.VertexMask, v1&vsparse.VertexMask, v2&vsparse.VertexMask, v3&vsparse.VertexMask
			s += float64(math.Float64frombits(props[n0]) * scale[n0])
			s += float64(math.Float64frombits(props[n1]) * scale[n1])
			s += float64(math.Float64frombits(props[n2]) * scale[n2])
			s += float64(math.Float64frombits(props[n3]) * scale[n3])
			continue
		}
		for m := vec.SignMask(vec.U64x4{v0, v1, v2, v3}); m != 0; m = m.Rest() {
			n := words[i+m.First()] & vsparse.VertexMask
			s += float64(math.Float64frombits(props[n]) * scale[n])
		}
	}
	return s
}

var sinkF64 float64

// BenchmarkRankSumRun walks every destination run of the uk-2007 analog's
// pull array once per iteration, one call per run as the engine makes them,
// and reports ns/edge for the selected kernel, the Go twin, and the
// per-vector chain they replaced.
func BenchmarkRankSumRun(b *testing.B) {
	a := vsparse.FromCSR(csr.FromGraph(gen.Generate(gen.UK2007, 1), true))
	in := newRankFixture(a.N, 3)
	plain := func(f func([]uint64, []float64, []float32) float64) func([]uint64) float64 {
		return func(w []uint64) float64 { return f(w, in.contrib, nil) }
	}
	for _, k := range []struct {
		name string
		run  func(words []uint64) float64
	}{
		{vec.Kernel(), plain(vec.RankSumRun)},
		{"go-twin", plain(vec.RankSumRunGo)},
		{"chain", func(w []uint64) float64 { return chainRun(w, in.props, in.scale) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sum := 0.0
				for dst := 0; dst < a.N; dst++ {
					if lo, hi := a.Index[dst], a.Index[dst+1]; hi > lo {
						sum += k.run(a.Words[lo*vec.Lanes : hi*vec.Lanes])
					}
				}
				sinkF64 = sum
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.ValidEdges), "ns/edge")
		})
	}
}
