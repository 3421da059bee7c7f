package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/graph"
)

// edgeListHash is the SHA-256 of g's edge list, each edge as Src, Dst and
// the bits of its Weight, three little-endian uint32s.
func edgeListHash(g *graph.Graph) string {
	h := sha256.New()
	var b [12]byte
	for _, e := range g.Edges {
		binary.LittleEndian.PutUint32(b[0:], e.Src)
		binary.LittleEndian.PutUint32(b[4:], e.Dst)
		binary.LittleEndian.PutUint32(b[8:], math.Float32bits(e.Weight))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedCase is one generated graph whose bytes are held fixed.
type pinnedCase struct {
	name     string
	build    func() *graph.Graph
	vertices int
	sha256   string
}

func pinnedCases() []pinnedCase {
	gen := func(d Dataset, s float64) func() *graph.Graph {
		return func() *graph.Graph { return Generate(d, s) }
	}
	return []pinnedCase{
		{"C/0.25", gen(CitPatents, 0.25), 1024,
			"18f5b6167d868ce4104c513eb2cbea2a1c6698b29adfd890f5b9b9a5ff507061"},
		{"D/0.25", gen(DimacsUSA, 0.25), 1440,
			"d2187f4dc94e14211a9d47ecf5e929bc5e874f2c3116598970d2ba42748b51d4"},
		{"L/0.25", gen(LiveJournal, 0.25), 1024,
			"b6c078d6be7a57bba7668509204d5c90916f5758ba010e41dace66641eb93554"},
		{"T/0.25", gen(Twitter, 0.25), 8192,
			"8b15fdb4c3ac9124140622b32be923347d5074781235fcf0fdb8a93e029ac031"},
		{"F/0.25", gen(Friendster, 0.25), 16384,
			"ee34cf752afc19ca697782b90e802924aadb56666f81b375a8cfc5943949e3f3"},
		{"U/0.25", gen(UK2007, 0.25), 16384,
			"3dd9070bbeb39e686d1712780deb3404628e074d560396c10882221fec068aed"},
		{"C/1", gen(CitPatents, 1), 1024,
			"fd6d65d3dd9e9e12f77b49a42583b63a0ae654549fea87e4845ac279a89d18f4"},
		{"D/1", gen(DimacsUSA, 1), 5832,
			"1551f092bf4407c1d829dac8caea90aeb1034c448d82aff53286ea09c8b7a79c"},
		{"L/1", gen(LiveJournal, 1), 1024,
			"f8b523b9a041d19e3a33935e8857574a6bd1e28687c041d7fec3271b45161a3b"},
		{"T/1", gen(Twitter, 1), 8192,
			"897133c19c6c2d118c412b8b4657dd2e507561109f6824a66cfbd911a8fcc615"},
		{"F/1", gen(Friendster, 1), 16384,
			"858a9b482f1c8441a96d0bbe9a78f17f638157206cff57b78072919c54257bf1"},
		{"U/1", gen(UK2007, 1), 16384,
			"5e5249ff6d369a85107b43d040972d6964caac9b183d85861f05fdafa106f7ca"},
		{"U/4", gen(UK2007, 4), 65536,
			"e671d75ec7b35d5627a0493e295b12772413bcbaf79bd7b5bca5a44db26e9f3b"},
		{"T/4", gen(Twitter, 4), 32768,
			"ba95c0e07343d5ad5aa6d5435cdec80508b912dc736530bec4c56e53e5b39376"},
		{"T/8", gen(Twitter, 8), 32768,
			"24963065f0524ed681b9fb9d4ae277c65118a667a7b9bd0984e9c138527bfb38"},
		{"D/4", gen(DimacsUSA, 4), 23328,
			"c60068e49e54b5ff6fc6e019c645ec3b4333f505d2cf63d6ce18493c620c5e1b"},
		{"T/1+weights", func() *graph.Graph { return AddUniformWeights(Generate(Twitter, 1), 7) }, 8192,
			"97ea808ac93ac07834b19993d8c1c52949c6b83dbec6a6916d370d630977af12"},
		{"grid-9x9-weighted", func() *graph.Graph { return Grid(9, 9, true, 2) }, 81,
			"b08db6c1d5eb29a8378e0f5304e11dd2fb2ba18e39e5363f4a3ad70e853fab69"},
		{"erdos-renyi", func() *graph.Graph { return ErdosRenyi(1000, 20000, 5) }, 1000,
			"d4dd8ea65d2fbdb9d3d23e55c83234b86bd2fe645c2bcc36ba55cd9c9cfa5adb"},
	}
}

// TestGeneratePinned holds every generator's output byte for byte: the
// analogs behind the paper's figures, the benchmark's graphs, a weighted
// copy, a weighted mesh and a uniform random graph. The hashes were taken
// from the comparison sort that SortBySource used before it became a
// counting sort, D/0.25's since the mesh's sides scale by √scale below 1;
// a change that moves one changes every figure's input.
func TestGeneratePinned(t *testing.T) {
	for _, c := range pinnedCases() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.build()
			got := edgeListHash(g)
			if g.NumVertices != c.vertices || got != c.sha256 {
				t.Errorf("%s: %d vertices, %d edges, sha256 %s; pinned %d vertices, sha256 %s",
					c.name, g.NumVertices, len(g.Edges), got, c.vertices, c.sha256)
			}
		})
	}
}
