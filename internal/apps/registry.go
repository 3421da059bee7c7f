package apps

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
)

// This file is the application registry: the one place an algorithm plugs
// into the system. Each Entry bundles everything the layers above need —
// the Program constructor, the parameter schema (which request fields the
// app reads, from which cache keys are derived), result serializers, the
// engine iteration bound, and a sequential reference implementation for the
// conformance suite. The facade's generic Run, the CLI, the HTTP service,
// the query cache, and the benchmark harness all dispatch through Lookup,
// so registering an entry is the complete integration surface: a new app is
// cacheable, traced, admission-controlled, benchmarked, and HTTP-exposed
// the moment it registers (see DESIGN.md §12 for the contract).

// Params is the universal parameter record. Every app reads a subset of its
// fields, declared by Entry.Uses; the rest are ignored (and zeroed out of
// cache keys by ZeroUnused).
type Params struct {
	// Iters bounds iteration-parameterized apps (pr, wpr, lp, ppr).
	Iters int
	// Root is the source vertex for rooted apps (bfs, sssp, ppr).
	Root uint32
	// K is the core threshold for kcore.
	K int
}

// ParamField is a bitset over Params fields.
type ParamField uint8

// Params fields.
const (
	ParamIters ParamField = 1 << iota
	ParamRoot
	ParamK
)

// Stat is one summary statistic of a run: Key names it in JSON responses,
// Label/Text render it for humans ("PageRank Sum: 1.000000000000").
type Stat struct {
	Key   string
	Label string
	Value any
	Text  string
}

// Info is the serializable description of a registered app, served by
// GET /v1/apps and `grazelle -a list`.
type Info struct {
	Name         string         `json:"name"`
	Title        string         `json:"title"`
	Description  string         `json:"description"`
	Params       []string       `json:"params"`
	Defaults     map[string]int `json:"defaults,omitempty"`
	NeedsWeights bool           `json:"needs_weights"`
}

// Entry is one registered application.
type Entry struct {
	// Name is the registry key and wire name (lowercase, e.g. "pr").
	Name string
	// Title is the human name, also used in error messages ("WeightedRank
	// requires a weighted graph").
	Title string
	// Description is a one-line summary for listings.
	Description string
	// Uses declares which Params fields the app reads; everything else is
	// zeroed out of cache keys so requests differing only in ignored fields
	// coalesce.
	Uses ParamField
	// Defaults supplies values for used fields left unset (<= 0).
	Defaults Params
	// NeedsWeights requires a weighted graph.
	NeedsWeights bool
	// FloatLanes marks float64 property lanes: the conformance suite
	// compares against the reference with a relative tolerance instead of
	// exact equality (the reference accumulates in a different order).
	FloatLanes bool
	// New constructs the Program for one run on one graph version, reading
	// what it needs of the version's layouts. It validates params against the
	// graph (e.g. root in range).
	New func(g Layouts, p Params) (Program, error)
	// MaxIters is the engine iteration bound (effectively unbounded for
	// fixpoint apps).
	MaxIters func(p Params) int
	// Reference computes the expected property lanes sequentially, with
	// none of the engine machinery — the conformance ground truth.
	Reference func(g *graph.Graph, p Params) []uint64
	// Summary extracts the run's headline statistics from property lanes.
	Summary func(p Params, props []uint64) []Stat
	// Values converts property lanes to the JSON-facing per-vertex vector.
	Values func(props []uint64) any
	// VertexText renders one vertex's value for `-o` per-vertex output.
	VertexText func(props []uint64, v int) string
	// IncrementalSeed, when non-nil, plans a warm start for this app from a
	// predecessor version's result and the mutation delta connecting it to
	// the current graph (DESIGN.md §15). A returned error means the delta
	// violates the app's seeding preconditions; callers fall back to a full
	// recompute. Only cc sets it.
	IncrementalSeed func(in SeedInput) (*SeedPlan, error)
}

// ZeroUnused returns p with every field the app does not read zeroed —
// the canonicalization step behind cache-key derivation.
func (e Entry) ZeroUnused(p Params) Params {
	if e.Uses&ParamIters == 0 {
		p.Iters = 0
	}
	if e.Uses&ParamRoot == 0 {
		p.Root = 0
	}
	if e.Uses&ParamK == 0 {
		p.K = 0
	}
	return p
}

// Normalize zeroes unused fields and fills defaults for used fields left
// unset (<= 0).
func (e Entry) Normalize(p Params) Params {
	p = e.ZeroUnused(p)
	if e.Uses&ParamIters != 0 && p.Iters <= 0 {
		p.Iters = e.Defaults.Iters
	}
	if e.Uses&ParamK != 0 && p.K <= 0 {
		p.K = e.Defaults.K
	}
	return p
}

// Canonical renders p as the canonical cache-key parameter string: fields
// the app ignores are zeroed and defaults applied first, so every request
// that would produce the same run produces the same string.
func (e Entry) Canonical(p Params) string {
	p = e.Normalize(p)
	return fmt.Sprintf("iters=%d&k=%d&root=%d", p.Iters, p.K, p.Root)
}

// Info returns the serializable description of the entry.
func (e Entry) Info() Info {
	params := []string{}
	defaults := map[string]int{}
	if e.Uses&ParamIters != 0 {
		params = append(params, "iters")
		defaults["iters"] = e.Defaults.Iters
	}
	if e.Uses&ParamK != 0 {
		params = append(params, "k")
		defaults["k"] = e.Defaults.K
	}
	if e.Uses&ParamRoot != 0 {
		params = append(params, "root")
	}
	if len(defaults) == 0 {
		defaults = nil
	}
	return Info{
		Name:         e.Name,
		Title:        e.Title,
		Description:  e.Description,
		Params:       params,
		Defaults:     defaults,
		NeedsWeights: e.NeedsWeights,
	}
}

var registry = map[string]Entry{}

// Register adds an entry to the registry, validating completeness. Out-of-
// tree apps call this (or MustRegister) from an init function; everything
// above the registry — CLI flags, HTTP routing, caching, conformance —
// picks the app up without further wiring.
func Register(e Entry) error {
	switch {
	case e.Name == "":
		return fmt.Errorf("apps: register: empty name")
	case e.Title == "":
		return fmt.Errorf("apps: register %q: empty title", e.Name)
	case e.New == nil || e.MaxIters == nil || e.Reference == nil ||
		e.Summary == nil || e.Values == nil || e.VertexText == nil:
		return fmt.Errorf("apps: register %q: incomplete entry (New, MaxIters, Reference, Summary, Values, VertexText are all required)", e.Name)
	}
	if _, dup := registry[e.Name]; dup {
		return fmt.Errorf("apps: register %q: already registered", e.Name)
	}
	registry[e.Name] = e
	return nil
}

// MustRegister is Register, panicking on error.
func MustRegister(e Entry) {
	if err := Register(e); err != nil {
		panic(err)
	}
}

// Lookup resolves an app by registry name.
func Lookup(name string) (Entry, error) {
	e, ok := registry[name]
	if !ok {
		return Entry{}, fmt.Errorf("unknown app %q (registered: %s)", name, namesJoined())
	}
	return e, nil
}

// Names returns the registered app names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered entry, sorted by name.
func All() []Entry {
	names := Names()
	out := make([]Entry, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

func namesJoined() string {
	s := ""
	for i, n := range Names() {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// --- lane conversion helpers -----------------------------------------------

func floatLanes(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = f64(x)
	}
	return out
}

func labelLanes(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

// Parents converts BFS property lanes to int64 parents with -1 for
// unreached vertices.
func Parents(props []uint64) []int64 {
	out := make([]int64, len(props))
	for i, p := range props {
		if p == NoParent {
			out[i] = -1
		} else {
			out[i] = int64(p)
		}
	}
	return out
}

func countReached(props []uint64) int {
	n := 0
	for _, p := range props {
		if p != NoParent {
			n++
		}
	}
	return n
}

func countFinite(props []uint64) int {
	n := 0
	for _, p := range props {
		if !math.IsInf(asF64(p), 1) {
			n++
		}
	}
	return n
}

func checkRoot(n int, root uint32) error {
	if int(root) >= n {
		return fmt.Errorf("root %d out of range (graph has %d vertices)", root, n)
	}
	return nil
}

func rankStat(label string, props []uint64) []Stat {
	s := RankSum(props)
	return []Stat{{Key: "rank_sum", Label: label, Value: s, Text: fmt.Sprintf("%.12f", s)}}
}

// --- built-in registrations -------------------------------------------------

func init() {
	MustRegister(Entry{
		Name:        "pr",
		Title:       "PageRank",
		Description: "damped (0.85) PageRank with dangling-mass redistribution",
		Uses:        ParamIters,
		Defaults:    Params{Iters: 16},
		FloatLanes:  true,
		New: func(g Layouts, _ Params) (Program, error) {
			return PageRankOn(g.RankScale(false)), nil
		},
		MaxIters: func(p Params) int { return p.Iters },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return floatLanes(ReferencePageRank(g, 0.85, p.Iters))
		},
		Summary: func(_ Params, props []uint64) []Stat { return rankStat("PageRank Sum", props) },
		Values:  func(props []uint64) any { return Ranks(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%.12g", asF64(props[v]))
		},
	})

	MustRegister(Entry{
		Name:         "wpr",
		Title:        "WeightedRank",
		Description:  "weighted PageRank: rank·w/weightedOutDeg messages (§6's CF-like kernel)",
		Uses:         ParamIters,
		Defaults:     Params{Iters: 16},
		NeedsWeights: true,
		FloatLanes:   true,
		New: func(g Layouts, _ Params) (Program, error) {
			return WeightedRankOn(g.RankScale(true)), nil
		},
		MaxIters: func(p Params) int { return p.Iters },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return floatLanes(ReferenceWeightedRank(g, 0.85, p.Iters))
		},
		Summary: func(_ Params, props []uint64) []Stat { return rankStat("WeightedRank Sum", props) },
		Values:  func(props []uint64) any { return Ranks(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%.12g", asF64(props[v]))
		},
	})

	MustRegister(Entry{
		Name:        "cc",
		Title:       "ConnectedComponents",
		Description: "min-label propagation to a fixpoint (components on symmetric graphs)",
		New: func(Layouts, Params) (Program, error) {
			return NewConnComp(), nil
		},
		MaxIters: func(Params) int { return 1 << 30 },
		Reference: func(g *graph.Graph, _ Params) []uint64 {
			return labelLanes(ReferenceComponents(g))
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := DistinctLabels(props)
			return []Stat{{Key: "components", Label: "Components", Value: n, Text: fmt.Sprintf("%d", n)}}
		},
		Values: func(props []uint64) any { return Components(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%d", uint32(props[v]))
		},
		IncrementalSeed: seedCC,
	})

	MustRegister(Entry{
		Name:        "bfs",
		Title:       "BFS",
		Description: "breadth-first search from root, minimum-id parent selection",
		Uses:        ParamRoot,
		New: func(g Layouts, p Params) (Program, error) {
			if err := checkRoot(g.NumVertices(), p.Root); err != nil {
				return nil, err
			}
			return NewBFS(p.Root), nil
		},
		MaxIters: func(Params) int { return 1 << 30 },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return ReferenceBFS(g, p.Root)
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := countReached(props)
			return []Stat{{Key: "reachable", Label: "Reachable", Value: n,
				Text: fmt.Sprintf("%d of %d", n, len(props))}}
		},
		Values: func(props []uint64) any { return Parents(props) },
		VertexText: func(props []uint64, v int) string {
			if props[v] == NoParent {
				return "-1"
			}
			return fmt.Sprintf("%d", props[v])
		},
	})

	MustRegister(Entry{
		Name:         "sssp",
		Title:        "SSSP",
		Description:  "single-source shortest paths (synchronous Bellman-Ford) from root",
		Uses:         ParamRoot,
		NeedsWeights: true,
		FloatLanes:   true,
		New: func(g Layouts, p Params) (Program, error) {
			if err := checkRoot(g.NumVertices(), p.Root); err != nil {
				return nil, err
			}
			return NewSSSP(p.Root), nil
		},
		MaxIters: func(Params) int { return 1 << 30 },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return floatLanes(ReferenceSSSP(g, p.Root))
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := countFinite(props)
			return []Stat{{Key: "reachable", Label: "Reached", Value: n,
				Text: fmt.Sprintf("%d of %d", n, len(props))}}
		},
		Values: func(props []uint64) any { return Distances(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%g", asF64(props[v]))
		},
	})

	MustRegister(Entry{
		Name:        "tc",
		Title:       "TriangleCount",
		Description: "per-vertex triangle counting over the undirected simple closure",
		New: func(g Layouts, _ Params) (Program, error) {
			return NewTriangleCount(g.Matrices()), nil
		},
		MaxIters: func(Params) int { return 1 },
		Reference: func(g *graph.Graph, _ Params) []uint64 {
			return ReferenceTriangles(g)
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := Triangles(props)
			return []Stat{{Key: "triangles", Label: "Triangles", Value: n, Text: fmt.Sprintf("%d", n)}}
		},
		Values: func(props []uint64) any {
			return append([]uint64(nil), props...)
		},
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%d", props[v])
		},
	})

	MustRegister(Entry{
		Name:        "kcore",
		Title:       "KCore",
		Description: "k-core decomposition by synchronous peeling (directed in-degrees)",
		Uses:        ParamK,
		Defaults:    Params{K: 2},
		New: func(g Layouts, p Params) (Program, error) {
			_, in := g.Matrices()
			return NewKCore(in, p.K), nil
		},
		MaxIters: func(Params) int { return 1 << 30 },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return ReferenceKCore(g, p.K)
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := InCore(props)
			return []Stat{{Key: "in_kcore", Label: "In k-core", Value: n,
				Text: fmt.Sprintf("%d of %d", n, len(props))}}
		},
		Values: func(props []uint64) any { return CoreMembership(props) },
		VertexText: func(props []uint64, v int) string {
			if props[v] == KCoreDead {
				return "0"
			}
			return "1"
		},
	})

	MustRegister(Entry{
		Name:        "lp",
		Title:       "LabelPropagation",
		Description: "community detection by salted min-hash label propagation",
		Uses:        ParamIters,
		Defaults:    Params{Iters: 16},
		New: func(Layouts, Params) (Program, error) {
			return NewLabelProp(), nil
		},
		MaxIters: func(p Params) int { return p.Iters },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return ReferenceLabelProp(g, p.Iters)
		},
		Summary: func(_ Params, props []uint64) []Stat {
			n := DistinctLabels(props)
			return []Stat{{Key: "labels", Label: "Labels", Value: n, Text: fmt.Sprintf("%d", n)}}
		},
		Values: func(props []uint64) any { return Labels(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%d", uint32(props[v]))
		},
	})

	MustRegister(Entry{
		Name:        "ppr",
		Title:       "PersonalizedPageRank",
		Description: "PageRank with all teleport and dangling mass returned to root",
		Uses:        ParamIters | ParamRoot,
		Defaults:    Params{Iters: 16},
		FloatLanes:  true,
		New: func(g Layouts, p Params) (Program, error) {
			if err := checkRoot(g.NumVertices(), p.Root); err != nil {
				return nil, err
			}
			return PersonalizedPageRankOn(g.RankScale(false), p.Root), nil
		},
		MaxIters: func(p Params) int { return p.Iters },
		Reference: func(g *graph.Graph, p Params) []uint64 {
			return floatLanes(ReferencePPR(g, 0.85, p.Root, p.Iters))
		},
		Summary: func(_ Params, props []uint64) []Stat { return rankStat("PPR Sum", props) },
		Values:  func(props []uint64) any { return Ranks(props) },
		VertexText: func(props []uint64, v int) string {
			return fmt.Sprintf("%.12g", asF64(props[v]))
		},
	})
}
