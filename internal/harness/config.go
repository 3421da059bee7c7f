package harness

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Config controls experiment sizing. The zero value is normalized by
// withDefaults to the full benchfig settings; Quick selects the reduced
// sizes harness_test.go uses to execute every figure's code path.
type Config struct {
	// Scale multiplies the Table 1 analog dataset sizes (1.0 = default
	// benchmark size; see internal/gen).
	Scale float64
	// Workers is the maximum worker count (default GOMAXPROCS).
	Workers int
	// PRIters is the PageRank iteration count per measurement (the paper's
	// Fig 11 reports per-iteration time; Table 2 suggests per-graph counts —
	// at analog scale a fixed small count converges the measurement).
	PRIters int
	// Repeats is the number of timed repetitions; the minimum is reported.
	Repeats int
	// Quick defaults Scale to 0.12, PRIters to 3 and Repeats to 1, and
	// trims the socket, granularity and degree sweeps: enough to check a
	// figure's shape (which rows, which columns, which cells are n/a) in
	// seconds. Its timings are single samples of tiny runs — paper-shape
	// tables only; a regression claim goes through `bench -compare`.
	Quick bool
	// Datasets restricts the sweep; nil means all six.
	Datasets []gen.Dataset
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
		if c.Quick {
			c.Scale = 0.12
		}
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PRIters < 1 {
		c.PRIters = 8
		if c.Quick {
			c.PRIters = 3
		}
	}
	if c.Repeats < 1 {
		c.Repeats = 3
		if c.Quick {
			c.Repeats = 1
		}
	}
	if len(c.Datasets) == 0 {
		c.Datasets = gen.AllDatasets
	}
	return c
}

// graphCache memoizes generated analogs and their preprocessed forms within
// one process (experiments share datasets). cacheMu guards both maps —
// harness entry points run from concurrent test packages and goroutines. It
// is held only around map access, not generation, so two first-callers may
// both generate; the duplicated work is benign, a torn map write is not.
var (
	cacheMu    sync.Mutex
	graphCache = map[string]*graph.Graph{}
	coreCache  = map[string]*core.Graph{}
)

func cacheKey(d gen.Dataset, scale float64) string {
	return string(d.Abbrev()) + ":" + strconv.FormatFloat(scale, 'g', -1, 64)
}

// DatasetGraph returns the (cached) analog of d at the config's scale.
func (c Config) DatasetGraph(d gen.Dataset) *graph.Graph {
	key := cacheKey(d, c.Scale)
	cacheMu.Lock()
	g, ok := graphCache[key]
	cacheMu.Unlock()
	if ok {
		return g
	}
	g = gen.Generate(d, c.Scale)
	cacheMu.Lock()
	if prior, ok := graphCache[key]; ok {
		g = prior // a racing generator won; keep one canonical instance
	} else {
		graphCache[key] = g
	}
	cacheMu.Unlock()
	return g
}

// DatasetCoreGraph returns the (cached) preprocessed Grazelle forms.
func (c Config) DatasetCoreGraph(d gen.Dataset) *core.Graph {
	key := cacheKey(d, c.Scale)
	cacheMu.Lock()
	g, ok := coreCache[key]
	cacheMu.Unlock()
	if ok {
		return g
	}
	g = core.BuildGraph(c.DatasetGraph(d))
	cacheMu.Lock()
	if prior, ok := coreCache[key]; ok {
		g = prior
	} else {
		coreCache[key] = g
	}
	cacheMu.Unlock()
	return g
}

// timeBest runs fn Repeats times and returns the fastest wall time, the
// paper artifact's convention. It feeds the paper-shape tables only: a
// minimum has no spread, so it can show which configuration wins a figure
// but not whether a change moved it — that is `bench -compare`'s job.
func (c Config) timeBest(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < c.Repeats; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// ratio formats a speedup factor.
func ratio(base, v time.Duration) float64 {
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}
