package grazelle

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// concurrencyGraph builds a weighted RMAT analog so all five applications
// are available from one Engine.
func concurrencyGraph(t *testing.T) *Graph {
	t.Helper()
	wg := gen.AddUniformWeights(gen.RMAT(11, 16000, gen.DefaultRMAT, 21), 22)
	g, err := NewGraph(wg.NumVertices, wg.Edges, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineConcurrentMixedQueries is the headline concurrency guarantee:
// twelve goroutines run all five applications on ONE Engine (one graph, one
// worker pool) and every output must be bit-identical to the corresponding
// sequential solo run.
func TestEngineConcurrentMixedQueries(t *testing.T) {
	g := concurrencyGraph(t)
	e := NewEngine(g, Options{Workers: 4})
	defer e.Close()

	bits := func(f float64) uint64 { return math.Float64bits(f) }
	type query struct {
		name string
		run  func() ([]uint64, error)
	}
	queries := []query{
		{"PageRank", func() ([]uint64, error) {
			res := e.PageRank(8)
			out := make([]uint64, len(res.Ranks))
			for i, r := range res.Ranks {
				out[i] = bits(r)
			}
			return out, nil
		}},
		{"WeightedRank", func() ([]uint64, error) {
			res, err := e.WeightedRank(8)
			out := make([]uint64, len(res.Ranks))
			for i, r := range res.Ranks {
				out[i] = bits(r)
			}
			return out, err
		}},
		{"CC", func() ([]uint64, error) {
			res := e.ConnectedComponents()
			out := make([]uint64, len(res.Components))
			for i, c := range res.Components {
				out[i] = uint64(c)
			}
			return out, nil
		}},
		{"BFS", func() ([]uint64, error) {
			res := e.BFS(0)
			out := make([]uint64, len(res.Parents))
			for i, p := range res.Parents {
				out[i] = uint64(p)
			}
			return out, nil
		}},
		{"SSSP", func() ([]uint64, error) {
			res, err := e.SSSP(0)
			out := make([]uint64, len(res.Dist))
			for i, d := range res.Dist {
				out[i] = bits(d)
			}
			return out, err
		}},
	}

	// Sequential references, one solo run per application.
	want := make([][]uint64, len(queries))
	for i, q := range queries {
		ref, err := q.run()
		if err != nil {
			t.Fatalf("%s reference: %v", q.name, err)
		}
		want[i] = ref
	}

	const reps = 3 // 15 concurrent queries, three per application
	var wg sync.WaitGroup
	for rep := 0; rep < reps; rep++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q query) {
				defer wg.Done()
				got, err := q.run()
				if err != nil {
					t.Errorf("%s: %v", q.name, err)
					return
				}
				for v := range want[i] {
					if got[v] != want[i][v] {
						t.Errorf("%s: output[%d] = %#x, want %#x (bit-exact vs sequential reference)",
							q.name, v, got[v], want[i][v])
						return
					}
				}
			}(i, q)
		}
	}
	wg.Wait()
}

// TestEngineCtxCancellation: a cancelled context stops every application's
// run early with a non-nil error.
func TestEngineCtxCancellation(t *testing.T) {
	g := concurrencyGraph(t)
	e := NewEngine(g, Options{Workers: 2})
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range []struct {
		app string
		p   Params
	}{
		{"pr", Params{Iters: 100}},
		{"wpr", Params{Iters: 100}},
		{"cc", Params{}},
		{"bfs", Params{Root: 0}},
		{"sssp", Params{Root: 0}},
	} {
		if _, err := e.Run(ctx, q.app, q.p); !errors.Is(err, context.Canceled) {
			t.Errorf("%s err = %v, want context.Canceled", q.app, err)
		}
	}

	// A live context cancelled mid-run still yields the partial result shape.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { time.Sleep(time.Millisecond); cancel2() }()
	res, err := e.Run(ctx2, "pr", Params{Iters: 1 << 20})
	if err == nil {
		t.Fatal("mid-run cancellation returned nil error")
	}
	if res == nil {
		t.Fatal("mid-run cancellation returned no partial result")
	}
	if len(res.Props) != g.NumVertices() {
		t.Errorf("partial result has %d ranks, want %d", len(res.Props), g.NumVertices())
	}
}

// TestEngineCloseIdempotent: Engine.Close twice must not panic.
func TestEngineCloseIdempotent(t *testing.T) {
	g := concurrencyGraph(t)
	e := NewEngine(g, Options{Workers: 2})
	e.Close()
	e.Close()
}

// TestNumComponentsCounts pins the bitmap-based label count.
func TestNumComponentsCounts(t *testing.T) {
	r := ComponentsResult{Components: []uint32{0, 0, 2, 2, 4, 5}}
	if n := r.NumComponents(); n != 4 {
		t.Errorf("NumComponents = %d, want 4", n)
	}
	if n := (ComponentsResult{}).NumComponents(); n != 0 {
		t.Errorf("empty NumComponents = %d, want 0", n)
	}
}
