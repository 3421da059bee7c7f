package store

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestDeltaBetween: the ops between two published versions of one lineage
// are the batches published between them, in order; every pair whose delta
// cannot be recovered exactly — out of order, unknown, trimmed from the
// 32-point history, folded away by compaction, across a replace or delete,
// or on a closed store — reports false.
func TestDeltaBetween(t *testing.T) {
	g := gen.ErdosRenyi(200, 1200, 5)
	batches := [][]graph.EdgeOp{mutOps(g, 0, false), mutOps(g, 1, true), mutOps(g, 2, false)}
	concat := func(bs ...[]graph.EdgeOp) []graph.EdgeOp { return slices.Concat(bs...) }
	for _, tc := range []struct {
		name string
		// edit runs on a store holding g as "g" at v[0] with the three
		// batches published as v[1..3]; it returns the range to ask for and
		// the ops it must yield, nil when DeltaBetween must report false.
		edit func(t *testing.T, s *Store, v [4]uint64) (from, to uint64, want []graph.EdgeOp)
	}{
		{"chain", func(_ *testing.T, _ *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			return v[0], v[3], concat(batches...)
		}},
		{"suffix", func(_ *testing.T, _ *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			return v[1], v[3], concat(batches[1:]...)
		}},
		{"from equals to", func(_ *testing.T, _ *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			return v[2], v[2], nil
		}},
		{"from after to", func(_ *testing.T, _ *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			return v[3], v[1], nil
		}},
		{"unpublished", func(_ *testing.T, _ *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			return v[0], v[3] + 1, nil
		}},
		{"trimmed", func(t *testing.T, s *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			// v[0..3] and 32 more publishes: the window keeps the 32 newest.
			var oldest, last uint64
			for i := 0; i < maxViewPoints; i++ {
				if _, last = mustApply(t, s, "g", mutOps(g, 3+i, false)); i == 0 {
					oldest = last
				}
			}
			if _, ok := s.DeltaBetween("g", oldest, last); !ok {
				t.Fatal("the oldest retained version has no delta")
			}
			return v[3], last, nil
		}},
		{"compacted", func(t *testing.T, s *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			if err := s.Compact("g"); err != nil {
				t.Fatal(err)
			}
			vc, _ := s.Version("g")
			if ops, ok := s.DeltaBetween("g", v[3], vc); !ok || len(ops) != 0 {
				t.Fatalf("across the compaction republish: %d ops (ok %t), want none", len(ops), ok)
			}
			return v[0], vc, nil
		}},
		{"replaced", func(t *testing.T, s *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			if err := s.Add("g", core.BuildGraph(g)); err != nil {
				t.Fatal(err)
			}
			return v[0], v[3], nil
		}},
		{"deleted", func(t *testing.T, s *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			if err := s.Delete("g"); err != nil {
				t.Fatal(err)
			}
			return v[0], v[3], nil
		}},
		{"closed", func(t *testing.T, s *Store, v [4]uint64) (uint64, uint64, []graph.EdgeOp) {
			s.Close()
			return v[0], v[3], nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(Config{DataDir: t.TempDir(), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Add("g", core.BuildGraph(g)); err != nil {
				t.Fatal(err)
			}
			var v [4]uint64
			v[0], _ = s.Version("g")
			for i, b := range batches {
				_, v[i+1] = mustApply(t, s, "g", b)
			}
			from, to, want := tc.edit(t, s, v)
			ops, ok := s.DeltaBetween("g", from, to)
			if want == nil {
				if ok {
					t.Fatalf("DeltaBetween(%d, %d) = %d ops, want false", from, to, len(ops))
				}
				return
			}
			if !ok || !slices.Equal(ops, want) {
				t.Fatalf("DeltaBetween(%d, %d) = %d ops (ok %t), want the %d published between", from, to, len(ops), ok, len(want))
			}
		})
	}
}
