package gen

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Dataset identifies one of the six Table 1 inputs by the paper's
// single-letter abbreviation.
type Dataset byte

// The six evaluation datasets of the paper's Table 1.
const (
	CitPatents  Dataset = 'C' // cit-Patents: 3.7M vertices, 16.5M edges, mild skew
	DimacsUSA   Dataset = 'D' // dimacs-usa: 23.9M/58.3M, road mesh, degree ~2.4
	LiveJournal Dataset = 'L' // livejournal: 4.8M/69.0M, social, moderate skew
	Twitter     Dataset = 'T' // twitter-2010: 41.7M/1.47B, heavy-tailed
	Friendster  Dataset = 'F' // friendster: 65.6M/1.81B, heavy-tailed
	UK2007      Dataset = 'U' // uk-2007: 105.9M/3.74B, the most skewed in-degrees
)

// AllDatasets lists the datasets in the order the paper's plots use.
var AllDatasets = []Dataset{CitPatents, DimacsUSA, LiveJournal, Twitter, Friendster, UK2007}

// String returns the full dataset name.
func (d Dataset) String() string {
	switch d {
	case CitPatents:
		return "cit-Patents"
	case DimacsUSA:
		return "dimacs-usa"
	case LiveJournal:
		return "livejournal"
	case Twitter:
		return "twitter-2010"
	case Friendster:
		return "friendster"
	case UK2007:
		return "uk-2007"
	default:
		return fmt.Sprintf("Dataset(%q)", byte(d))
	}
}

// Abbrev returns the single-letter abbreviation used in the paper's plots.
func (d Dataset) Abbrev() string { return string(byte(d)) }

// ParseDataset resolves a name or single-letter abbreviation.
func ParseDataset(s string) (Dataset, error) {
	for _, d := range AllDatasets {
		if s == d.String() || s == d.Abbrev() {
			return d, nil
		}
	}
	return 0, fmt.Errorf("gen: unknown dataset %q (want one of C,D,L,T,F,U)", s)
}

// recipe describes how the synthetic analog of one dataset is produced.
// Vertex and edge counts at Scale 1.0 approximate each original divided by
// 2^12 (≈ 4096×), which keeps the most expensive benchmark (the uk-2007
// analog) under a million edges; Scale linearly multiplies edge counts and
// shifts the R-MAT vertex scale to keep average degree fixed.
type recipe struct {
	Dataset   Dataset
	RMATScale int        // log2 vertices at Scale 1.0 (0 for the mesh)
	EdgesK    int        // thousand edges at Scale 1.0
	Params    RMATParams // quadrant skew (ignored for the mesh)
	MeshRows  int        // mesh dimensions at Scale 1.0 (DimacsUSA only)
	MeshCols  int
}

// recipes maps each dataset to its analog. Skew ordering follows §6 of the
// paper: dimacs-usa is near-constant degree; cit-Patents mild; livejournal
// moderate; twitter and friendster heavy-tailed; uk-2007 the most skewed
// (over 10× more vertices of in-degree ≥ 100k than twitter).
var recipes = map[Dataset]recipe{
	CitPatents:  {Dataset: CitPatents, RMATScale: 10, EdgesK: 4, Params: RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.11}},
	DimacsUSA:   {Dataset: DimacsUSA, MeshRows: 72, MeshCols: 81, EdgesK: 23},
	LiveJournal: {Dataset: LiveJournal, RMATScale: 10, EdgesK: 17, Params: RMATParams{A: 0.52, B: 0.20, C: 0.20, D: 0.08}},
	Twitter:     {Dataset: Twitter, RMATScale: 13, EdgesK: 360, Params: RMATParams{A: 0.57, B: 0.19, C: 0.19, D: 0.05}},
	Friendster:  {Dataset: Friendster, RMATScale: 14, EdgesK: 440, Params: RMATParams{A: 0.55, B: 0.19, C: 0.19, D: 0.07}},
	UK2007:      {Dataset: UK2007, RMATScale: 14, EdgesK: 910, Params: RMATParams{A: 0.68, B: 0.16, C: 0.11, D: 0.05}},
}

// OriginalSize returns the vertex and edge counts of the real dataset
// (Table 1 of the paper). The edge counts drive the fidelity checks that
// depend on original scale — e.g. GraphMat's 32-bit edge indexing cannot
// load uk-2007's 3.74 B edges.
func OriginalSize(d Dataset) (vertices, edges int64) {
	switch d {
	case CitPatents:
		return 3_700_000, 16_500_000
	case DimacsUSA:
		return 23_900_000, 58_300_000
	case LiveJournal:
		return 4_800_000, 69_000_000
	case Twitter:
		return 41_700_000, 1_470_000_000
	case Friendster:
		return 65_600_000, 1_810_000_000
	case UK2007:
		return 105_900_000, 3_740_000_000
	default:
		return 0, 0
	}
}

// Generate builds the analog of dataset d at the given scale (1.0 is the
// default benchmark size). The result is deterministic per (d, scale).
func Generate(d Dataset, scale float64) *graph.Graph {
	r := recipes[d]
	seed := int64(d) * 7919
	edges := int(float64(r.EdgesK) * 1000 * scale)
	if d == DimacsUSA {
		f := meshFactor(scale)
		return Grid(int(float64(r.MeshRows)*f), int(float64(r.MeshCols)*f), false, seed)
	}
	rs := r.RMATScale
	for s := scale; s >= 4; s /= 4 {
		rs += 2 // keep average degree roughly constant as edges scale up
	}
	return RMAT(rs, edges, r.Params, seed)
}

// meshFactor converts an edge-scale factor into a side-length factor for the
// 2-D mesh (edges grow quadratically in side length).
func meshFactor(scale float64) float64 {
	f := 1.0
	for ; scale >= 4; scale /= 4 {
		f *= 2
	}
	if scale > 1 {
		f *= 1 + (scale-1)/3 // sub-4x remainder, approximately linearized
	}
	return f
}

// Stats summarizes a generated graph for the Table 1 report.
type Stats struct {
	Dataset     Dataset
	Vertices    int
	Edges       int
	AvgDegree   float64
	MaxInDegree int
	// P99InDegree is the 99th-percentile in-degree, a skew indicator.
	P99InDegree int
}

// Measure computes summary statistics of a generated analog.
func Measure(d Dataset, g *graph.Graph) Stats {
	in := g.InDegrees()
	sorted := append([]int(nil), in...)
	sort.Ints(sorted)
	p99 := 0
	if len(sorted) > 0 {
		p99 = sorted[len(sorted)*99/100]
	}
	return Stats{
		Dataset:     d,
		Vertices:    g.NumVertices,
		Edges:       g.NumEdges(),
		AvgDegree:   g.AvgDegree(),
		MaxInDegree: graph.MaxDegree(in),
		P99InDegree: p99,
	}
}
