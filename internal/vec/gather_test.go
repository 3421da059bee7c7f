package vec_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/csr"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/testgraph"
	"repro/internal/vec"
	"repro/internal/vsparse"
)

// The selected rank-sum chunk walk (the AVX2 assembly where the CPU has it)
// against the Go twin and against a per-edge-product reference, bit for bit,
// on the returned pair and on every accum word. On a purego build, or a CPU
// without AVX2, the first two are the same function and agree trivially; CI
// runs the tests on both.

// perEdgeChunk is the rank-sum chunk walk as the two-gather kernel computed
// it before contrib existed, written vector by vector from own, the owner of
// each vector (owners), not from the kernels' run-bound walk of index: every
// valid lane adds props[src]·scale[src] (·weight), multiplied out on that
// edge, into its lane's partial sum of the current destination; a
// destination change folds the previous one's partials as (l0+l1)+(l2+l3)
// and adds the sum to its accum word; the chunk's last destination is
// returned unflushed. The one-gather kernels must reproduce it to the bit.
func perEdgeChunk(words []uint32, own []int, props []uint64, scale []float64, weights []float32, accum []uint64, lo, hi int) (last int, acc uint64) {
	last = -1
	var l [vec.Lanes]float64
	fold := func() float64 { return (l[0] + l[1]) + (l[2] + l[3]) }
	for vi := lo; vi < hi; vi++ {
		v := vec.U32x4(words[vi*vec.Lanes:])
		if dst := own[vi]; dst != last {
			if last >= 0 {
				accum[last] = math.Float64bits(math.Float64frombits(accum[last]) + fold())
			}
			last, l = dst, [vec.Lanes]float64{}
		}
		for lane, w := range v {
			if w&vsparse.ValidBit == 0 {
				continue
			}
			n := w & vsparse.VertexMask
			term := float64(math.Float64frombits(props[n]) * scale[n])
			if weights != nil {
				term = float64(term * float64(weights[vi*vec.Lanes+lane]))
			}
			l[lane] += term
		}
	}
	return last, math.Float64bits(fold())
}

// rankFixture is one set of kernel inputs over n vertices: positive ranks of
// mixed magnitude, 1/outdeg-like scales that are zero for every seventh vertex
// (a dangling source), the contrib vector the engine derives from the two,
// one rounded product per vertex, and accum words the interior stores add
// to — +0 for every third vertex, as the engine starts a sweep, and a rank-
// sized value otherwise, so a store that overwrote instead of adding is seen.
type rankFixture struct {
	props, accum   []uint64
	scale, contrib []float64
	// kernelAccum, when set, returns the copy of accum the selected kernel
	// runs on (the guard-page test places it before an inaccessible page).
	kernelAccum func() []uint64
}

func newRankFixture(n int, seed int64) rankFixture {
	rng := rand.New(rand.NewSource(seed))
	f := rankFixture{props: make([]uint64, n), accum: make([]uint64, n), scale: make([]float64, n), contrib: make([]float64, n)}
	for v := range f.props {
		f.props[v] = math.Float64bits(rng.Float64() * math.Pow(10, float64(rng.Intn(9)-6)))
		if v%7 != 0 {
			f.scale[v] = 1 / float64(1+rng.Intn(1000))
		}
		f.contrib[v] = float64(math.Float64frombits(f.props[v]) * f.scale[v])
		if v%3 != 0 {
			f.accum[v] = math.Float64bits(rng.Float64() * 1e-3)
		}
	}
	return f
}

// owners expands a Vector-Sparse index group by group into the owner of
// every vector: vector vi belongs to the d with index[d] <= vi < index[d+1].
// The references read a vector's destination from it, one vector at a time.
func owners(index []int) []int {
	own := make([]int, index[len(index)-1])
	for d := 0; d+1 < len(index); d++ {
		for vi := index[d]; vi < index[d+1]; vi++ {
			own[vi] = d
		}
	}
	return own
}

// firstDst is the destination that owns vector lo of a chunk, as the engine
// passes it (0 for an empty chunk).
func firstDst(own []int, lo, hi int) int {
	if lo == hi {
		return 0
	}
	return own[lo]
}

// rankImpl is one implementation of the chunk walk under test.
type rankImpl struct {
	name string
	run  func(words []uint32, base int, index []int, contrib []float64, weights []float32, accum []uint64, dst, lo, hi int) (int, uint64)
}

// flat returns an array's lane words and weights end to end, as one slab
// starting at vector 0 (nil weights when the array is unweighted).
func flat(a *vsparse.Array) (words []uint32, weights []float32) {
	for _, s := range a.Slabs {
		words = append(words, s.Words...)
		if a.Weighted {
			weights = append(weights, s.Weights...)
		}
	}
	return words, weights
}

// from returns the lanes of a lane-parallel array from vector lo on: what a
// kernel takes with base lo. Every chunk below is walked that way, so its
// first vector is the first word the kernel is given.
func from[T any](lanes []T, lo int) []T {
	if lanes == nil {
		return nil
	}
	return lanes[lo*vec.Lanes:]
}

func rankImpls() []rankImpl {
	return []rankImpl{{vec.Kernel() + " kernel", vec.RankSumChunk}, {"Go twin", vec.RankSumChunkGo}}
}

// gridAgrees walks chunks [lo, hi) in order through the selected kernel, the
// Go twin and the per-edge reference, each on its own accum carried from chunk
// to chunk as the engine's is, and reports the first returned pair or accum
// word on which they differ. The kernels take each chunk's words from lo on,
// with base lo.
func (f rankFixture) gridAgrees(words []uint32, index []int, weights []float32, chunks [][2]int) error {
	rAccum := slices.Clone(f.accum)
	accums := make([][]uint64, len(rankImpls()))
	for i := range accums {
		accums[i] = slices.Clone(f.accum)
	}
	if f.kernelAccum != nil {
		accums[0] = f.kernelAccum()
	}
	own := owners(index)
	for _, c := range chunks {
		lo, hi := c[0], c[1]
		dst := firstDst(own, lo, hi)
		rLast, rAcc := dst, uint64(0)
		if lo < hi {
			rLast, rAcc = perEdgeChunk(words, own, f.props, f.scale, weights, rAccum, lo, hi)
		}
		for i, k := range rankImpls() {
			if last, acc := k.run(from(words, lo), lo, index, f.contrib, from(weights, lo), accums[i], dst, lo, hi); last != rLast || acc != rAcc {
				return fmt.Errorf("chunk [%d,%d): %s returned (%d, %#x), per-edge product (%d, %#x)", lo, hi, k.name, last, acc, rLast, rAcc)
			}
		}
	}
	for i, k := range rankImpls() {
		for v := range accums[i] {
			if accums[i][v] != rAccum[v] {
				return fmt.Errorf("accum[%d]: %s %#x, per-edge product %#x", v, k.name, accums[i][v], rAccum[v])
			}
		}
	}
	return nil
}

// chunkAgrees is gridAgrees on one chunk.
func (f rankFixture) chunkAgrees(words []uint32, index []int, weights []float32, lo, hi int) error {
	return f.gridAgrees(words, index, weights, [][2]int{{lo, hi}})
}

// store writes vector vi of a lane-word array.
func store(words []uint32, vi int, v vec.U32x4) { copy(words[vi*vec.Lanes:], v[:]) }

// grid cuts nv vectors into chunks of size vectors, the last one short.
func grid(nv, size int) [][2]int {
	var out [][2]int
	for lo := 0; lo < nv; lo += size {
		out = append(out, [2]int{lo, min(lo+size, nv)})
	}
	return out
}

// TestRankSumChunkCorpus: every corpus graph's pull array, plain and weighted,
// cut into a chunk pair at every vector boundary — [0, cut) and [cut, end),
// so every run is clipped at every vector boundary (a chunk edge can fall
// anywhere inside a run): hub runs longer than a chunk, groups of one to four
// lanes, duplicate edges, self-loops, and destinations with no run at all —
// plus a chunk of at most 16 vectors from every boundary, and the whole array
// walked on grids of 1, 2, 3 and 16 vectors and as one chunk.
func TestRankSumChunkCorpus(t *testing.T) {
	for _, c := range testgraph.Corpus() {
		a := vsparse.FromCSR(csr.FromGraph(c.WithWeights(), true))
		words, weights := flat(a)
		f := newRankFixture(a.N, 5)
		nv := a.NumVectors()
		for _, ws := range []struct {
			name string
			w    []float32
		}{{"plain", nil}, {"weighted", weights}} {
			for cut := 0; cut <= nv; cut++ {
				for _, s := range [][2]int{{0, cut}, {cut, nv}, {cut, min(cut+16, nv)}} {
					if err := f.chunkAgrees(words, a.Index, ws.w, s[0], s[1]); err != nil {
						t.Fatalf("%s %s: %v", c.Name, ws.name, err)
					}
				}
			}
			for _, size := range []int{1, 2, 3, 16, max(nv, 1)} {
				if err := f.gridAgrees(words, a.Index, ws.w, grid(nv, size)); err != nil {
					t.Fatalf("%s %s grid %d: %v", c.Name, ws.name, size, err)
				}
			}
		}
	}
}

// TestRankSumChunkQuick: random arrays of 0 to 40 vectors — destinations with
// zero to three vectors each, random valid prefixes (all-partial arrays
// included), random ids and weights — cut at a random chunk and walked on
// grids of 1, 2, 3 and 16 vectors and whole, plain and weighted. Words and
// weights end at the very end of their backing arrays, so a read past len
// would leave the allocation.
func TestRankSumChunkQuick(t *testing.T) {
	const n = 97
	f := newRankFixture(n, 9)
	check := func(seed int64, nvec uint8, allPartial bool) bool {
		rng := rand.New(rand.NewSource(seed))
		words, index := randomArray(rng, n, int(nvec)%41)
		weights := make([]float32, len(words))
		for i := range words {
			if allPartial && i%vec.Lanes == vec.Lanes-1 {
				words[i] &^= vsparse.ValidBit
			}
			if words[i]&vsparse.ValidBit != 0 {
				weights[i] = 0.5 + 9*rng.Float32()
			}
		}
		nv := len(words) / vec.Lanes
		lo := rng.Intn(nv + 1)
		hi := lo + rng.Intn(nv-lo+1)
		for _, ws := range [][]float32{nil, weights} {
			if err := f.chunkAgrees(words, index, ws, lo, hi); err != nil {
				t.Logf("seed %d, %d vectors, weighted %v: %v", seed, nv, ws != nil, err)
				return false
			}
			for _, size := range []int{1, 2, 3, 16, max(nv, 1)} {
				if err := f.gridAgrees(words, index, ws, grid(nv, size)); err != nil {
					t.Logf("seed %d, %d vectors, weighted %v, grid %d: %v", seed, nv, ws != nil, size, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, vectors := range []uint8{0, 1, 40} {
		if !check(1, vectors, false) || !check(2, vectors, true) {
			t.Errorf("kernels disagree on an array of %d vectors", vectors)
		}
	}
	for _, k := range rankImpls() {
		if last, acc := k.run(nil, 0, []int{0, 0}, f.contrib, nil, nil, 0, 0, 0); last != 0 || acc != 0 {
			t.Errorf("%s: empty chunk returns (%d, %#x), want (0, +0)", k.name, last, acc)
		}
	}
}

// TestRankSumChunkOrder pins the documented reduction order on a run where it
// matters — lane-wise partial sums folded (l0+l1)+(l2+l3), not a chain — both
// for a run stored inside the call and for the run it returns.
func TestRankSumChunkOrder(t *testing.T) {
	vals := []float64{1, 1e-16, -1, 1e-16, 3, 1e-16, 1e-16, 1e-16}
	l0, l1, l2, l3 := vals[0]+vals[4], vals[1]+vals[5], vals[2]+vals[6], vals[3]+vals[7]
	want := (l0 + l1) + (l2 + l3)
	chain := 0.0
	for _, v := range vals {
		chain += v
	}
	if want == chain {
		t.Fatal("fixture does not tell the lane-wise order from a chain")
	}
	// Destinations 0 and 1 each own the same two vectors of ids 0..7.
	words := make([]uint32, 4*vec.Lanes)
	for vi := 0; vi < 4; vi++ {
		var ids [vec.Lanes]uint32
		for lane := range ids {
			ids[lane] = uint32(vi%2*vec.Lanes + lane)
		}
		store(words, vi, vsparse.EncodeVector(ids, vec.Lanes))
	}
	index := []int{0, 2, 4}
	for _, k := range rankImpls() {
		accum := []uint64{0, 0}
		last, acc := k.run(words, 0, index, vals, nil, accum, 0, 0, 4)
		if got := math.Float64frombits(accum[0]); got != want {
			t.Errorf("%s: stored %v, want (l0+l1)+(l2+l3) = %v", k.name, got, want)
		}
		if got := math.Float64frombits(acc); last != 1 || got != want {
			t.Errorf("%s: returned (%d, %v), want (1, (l0+l1)+(l2+l3) = %v)", k.name, last, got, want)
		}
	}
}

// chainRun is the per-vector chain the pull kernel ran before the gather
// kernels: one running sum through all four lanes of every vector, the
// full-vector test first and a lane walk for partial vectors.
func chainRun(words []uint32, props []uint64, scale []float64) float64 {
	s := 0.0
	for i := 0; i+vec.Lanes <= len(words); i += vec.Lanes {
		v0, v1, v2, v3 := words[i], words[i+1], words[i+2], words[i+3]
		if (v0&v1&v2&v3)>>31 != 0 {
			n0, n1, n2, n3 := v0&vsparse.VertexMask, v1&vsparse.VertexMask, v2&vsparse.VertexMask, v3&vsparse.VertexMask
			s += float64(math.Float64frombits(props[n0]) * scale[n0])
			s += float64(math.Float64frombits(props[n1]) * scale[n1])
			s += float64(math.Float64frombits(props[n2]) * scale[n2])
			s += float64(math.Float64frombits(props[n3]) * scale[n3])
			continue
		}
		for m := vec.SignMask(vec.U32x4{v0, v1, v2, v3}); m != 0; m = m.Rest() {
			n := words[i+m.First()] & vsparse.VertexMask
			s += float64(math.Float64frombits(props[n]) * scale[n])
		}
	}
	return s
}

var sinkU64 uint64

// BenchmarkRankSumChunk walks the uk-2007 analog's pull array once per
// iteration and reports ns/edge, and MB/s of the lane words it streams. The chunk rows make one call per chunk of
// the engine's grid at two workers, as pullSpanBody does; the run rows make
// one call per destination run, as the engine did before the chunk walk;
// each on the selected kernel and on the Go twin. The chain row is the
// per-vector Go chain the gather kernels replaced, one call per run.
func BenchmarkRankSumChunk(b *testing.B) {
	a := vsparse.FromCSR(csr.FromGraph(gen.Generate(gen.UK2007, 1), true))
	words, _ := flat(a)
	in := newRankFixture(a.N, 3)
	nv := a.NumVectors()
	wordBytes := int64(len(words)) * 4
	// Each span is {dst, lo, hi}.
	var chunks, runs [][3]int
	own := owners(a.Index)
	for _, c := range grid(nv, sched.ChunkSize(nv, sched.DefaultChunks(2))) {
		chunks = append(chunks, [3]int{firstDst(own, c[0], c[1]), c[0], c[1]})
	}
	for dst := 0; dst < a.N; dst++ {
		if lo, hi := a.Index[dst], a.Index[dst+1]; hi > lo {
			runs = append(runs, [3]int{dst, lo, hi})
		}
	}
	walk := func(k rankImpl, spans [][3]int) func(b *testing.B) {
		return func(b *testing.B) {
			accum := make([]uint64, a.N)
			b.SetBytes(wordBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range spans {
					_, acc := k.run(words, 0, a.Index, in.contrib, nil, accum, s[0], s[1], s[2])
					sinkU64 += acc
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.ValidEdges), "ns/edge")
		}
	}
	for _, k := range []rankImpl{{vec.Kernel(), vec.RankSumChunk}, {"go-twin", vec.RankSumChunkGo}} {
		b.Run(k.name+"/chunk", walk(k, chunks))
		b.Run(k.name+"/run", walk(k, runs))
	}
	b.Run("chain", func(b *testing.B) {
		b.SetBytes(wordBytes)
		for i := 0; i < b.N; i++ {
			sum := 0.0
			for _, s := range runs {
				sum += chainRun(words[s[1]*vec.Lanes:s[2]*vec.Lanes], in.props, in.scale)
			}
			sinkU64 += math.Float64bits(sum)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*a.ValidEdges), "ns/edge")
	})
}
