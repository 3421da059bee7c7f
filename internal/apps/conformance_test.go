package apps_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Registry conformance suite: the bar every registered application must
// clear before it is servable. For each entry, on small analogs of the
// paper's T/U/D datasets:
//
//	(a) the engine's 1-worker output agrees with the entry's sequential
//	    reference implementation (exact for integer lanes, 1e-9 relative
//	    for float lanes — references accumulate in a different order);
//	(b) 2- and 4-worker runs are bit-identical to the 1-worker run, with
//	    ChunkVectors pinned because the default chunk layout derives from
//	    the worker count (see internal/core/determinism_test.go).
//
// The suite iterates apps.All(), so a future registration cannot land
// without passing the same bar — this test is the CI registry-conformance
// job. Run under -race in the race shard. internal/core's equivalence matrix
// (matrix_test.go) also iterates apps.All() and holds every row to a
// stricter bar: every engine cell, and the Edge-Pull body each pull round
// built.

// conformanceGraphs returns the T/U/D analogs at test scale, plus a
// weighted copy for NeedsWeights apps.
func conformanceGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, d := range []gen.Dataset{gen.Twitter, gen.UK2007, gen.DimacsUSA} {
		out[string(d.Abbrev())] = gen.Generate(d, 0.05)
	}
	return out
}

func conformanceParams(ent apps.Entry) apps.Params {
	return ent.Normalize(apps.Params{Iters: 4, Root: 1, K: 3})
}

func runConformance(t *testing.T, cg *core.Graph, g *graph.Graph, ent apps.Entry, p apps.Params, workers int) []uint64 {
	t.Helper()
	r := core.NewRunner(cg, core.Options{Workers: workers, ChunkVectors: 16})
	defer r.Close()
	prog, err := ent.New(cg, p)
	if err != nil {
		t.Fatal(err)
	}
	return core.Run(r, prog, ent.MaxIters(p)).Props
}

func TestRegistryConformance(t *testing.T) {
	graphs := conformanceGraphs()
	for _, ent := range apps.All() {
		t.Run(ent.Name, func(t *testing.T) {
			for name, base := range graphs {
				t.Run(name, func(t *testing.T) {
					g := base
					if ent.NeedsWeights {
						g = gen.AddUniformWeights(g, 42)
					}
					p := conformanceParams(ent)
					cg := core.BuildGraph(g)

					// (a) reference agreement at one worker.
					ref := runConformance(t, cg, g, ent, p, 1)
					want := ent.Reference(g, p)
					if len(want) != len(ref) {
						t.Fatalf("reference length %d, engine %d", len(want), len(ref))
					}
					for v := range want {
						if ent.FloatLanes {
							a, b := math.Float64frombits(ref[v]), math.Float64frombits(want[v])
							if a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) {
								continue
							}
							if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) {
								t.Fatalf("lane[%d] = %v, reference %v", v, a, b)
							}
						} else if ref[v] != want[v] {
							t.Fatalf("lane[%d] = %#x, reference %#x", v, ref[v], want[v])
						}
					}

					// (b) bit-identical across worker counts.
					for _, workers := range []int{2, 4} {
						got := runConformance(t, cg, g, ent, p, workers)
						for v := range ref {
							if got[v] != ref[v] {
								t.Fatalf("w=%d lane[%d] = %#x, w=1 has %#x (first divergence)",
									workers, v, got[v], ref[v])
							}
						}
					}
				})
			}
		})
	}
}

// TestRegistrySummaryStatsSane spot-checks that each entry's serializers
// hold together on real output — the engine's and the sequential
// reference's: Summary returns at least one stat with a nonempty
// key/label/text, Values returns a vector of NumVertices length, and
// VertexText renders without panicking.
func TestRegistrySummaryStatsSane(t *testing.T) {
	g := gen.Generate(gen.Twitter, 0.05)
	cg := core.BuildGraph(g)
	for _, ent := range apps.All() {
		t.Run(ent.Name, func(t *testing.T) {
			gg := g
			if ent.NeedsWeights {
				gg = gen.AddUniformWeights(g, 42)
			}
			p := conformanceParams(ent)
			ccg := cg
			if ent.NeedsWeights {
				ccg = core.BuildGraph(gg)
			}
			for _, props := range [][]uint64{runConformance(t, ccg, gg, ent, p, 2), ent.Reference(gg, p)} {
				stats := ent.Summary(p, props)
				if len(stats) == 0 {
					t.Fatal("Summary returned no stats")
				}
				for _, st := range stats {
					if st.Key == "" || st.Label == "" || st.Text == "" {
						t.Errorf("incomplete stat %+v", st)
					}
				}
				if n := vectorLen(t, ent.Values(props)); n != gg.NumVertices {
					t.Errorf("Values length %d, want %d", n, gg.NumVertices)
				}
				for _, v := range []int{0, gg.NumVertices - 1} {
					if ent.VertexText(props, v) == "" {
						t.Errorf("empty VertexText for vertex %d", v)
					}
				}
			}
		})
	}
}

func vectorLen(t *testing.T, v any) int {
	t.Helper()
	switch vec := v.(type) {
	case []float64:
		return len(vec)
	case []uint32:
		return len(vec)
	case []uint64:
		return len(vec)
	case []int64:
		return len(vec)
	default:
		t.Fatalf("unexpected Values type %T", v)
		return 0
	}
}

// TestRegistryWeightedAppsRejectUnweighted pins the NeedsWeights flag to
// actual program behavior: every app that does not declare NeedsWeights
// must construct and run on an unweighted graph.
func TestRegistryWeightedAppsRejectUnweighted(t *testing.T) {
	g := gen.Generate(gen.DimacsUSA, 0.05)
	cg := core.BuildGraph(g)
	for _, ent := range apps.All() {
		if ent.NeedsWeights {
			continue
		}
		t.Run(ent.Name, func(t *testing.T) {
			p := conformanceParams(ent)
			props := runConformance(t, cg, g, ent, p, 1)
			if len(props) != g.NumVertices {
				t.Fatalf("props length %d", len(props))
			}
		})
	}
}

// TestRegistryRootValidation ensures rooted apps reject out-of-range roots
// at construction instead of panicking mid-run.
func TestRegistryRootValidation(t *testing.T) {
	g := gen.Generate(gen.DimacsUSA, 0.05)
	for _, ent := range apps.All() {
		if ent.Uses&apps.ParamRoot == 0 {
			continue
		}
		t.Run(ent.Name, func(t *testing.T) {
			p := conformanceParams(ent)
			p.Root = uint32(g.NumVertices)
			if _, err := ent.New(core.BuildGraph(g), p); err == nil {
				t.Error("out-of-range root accepted")
			}
		})
	}
}

// TestRegistryApplyIdentityIsNoOp holds every frontier-driven entry to the
// precondition the engine's list-driven round rests on (its Vertex phase,
// core.runVertex over the touched list, applies only destinations some
// frontier edge touched): a vertex whose
// aggregate is still Identity does not change — Apply(old, Identity, v) ==
// (old, false) — on every state a run reaches, checked after each
// iteration of a run on each conformance graph.
func TestRegistryApplyIdentityIsNoOp(t *testing.T) {
	graphs := conformanceGraphs()
	for _, ent := range apps.All() {
		t.Run(ent.Name, func(t *testing.T) {
			for name, base := range graphs {
				g := base
				if ent.NeedsWeights {
					g = gen.AddUniformWeights(g, 42)
				}
				p := conformanceParams(ent)
				cg := core.BuildGraph(g)
				prog, err := ent.New(cg, p)
				if err != nil {
					t.Fatal(err)
				}
				if !prog.UsesFrontier() {
					t.Skip("frontier-blind: never takes the list-driven round")
				}
				r := core.NewRunner(cg, core.Options{Workers: 2})
				defer r.Close()
				identity := prog.Identity()
				for iters := 0; ; iters++ {
					res := core.Run(r, prog, iters)
					for v, old := range res.Props {
						if nv, changed := prog.Apply(old, identity, uint32(v)); nv != old || changed {
							t.Fatalf("%s after %d iterations: Apply(%#x, Identity, %d) = (%#x, %v)",
								name, res.Iterations, old, v, nv, changed)
						}
					}
					if res.Iterations < iters || iters >= ent.MaxIters(p) {
						break
					}
				}
			}
		})
	}
}

// TestRegistryMonotoneMinTrait holds every registered program that declares
// the monotone-min trait (apps.MonotoneMin) to what the declaration promises
// the engine's in-place pull: on lane values its own runs produce — every
// iteration's lanes on the Twitter analog, plus Identity — Combine is an
// idempotent, commutative, associative minimum with Identity on top, Apply is
// exactly that minimum with a changed flag, and Message never turns a smaller
// source value into a larger message (equal weights, zero weights and
// Identity sources included). A tenth app cannot claim the trait by accident;
// bfs, kcore and lp — whose Combine is also a minimum — are asserted not to.
func TestRegistryMonotoneMinTrait(t *testing.T) {
	base := gen.Generate(gen.Twitter, 0.05)
	weighted := gen.AddUniformWeights(base, 42)
	built := map[*graph.Graph]*core.Graph{base: core.BuildGraph(base), weighted: core.BuildGraph(weighted)}
	declared := map[string]bool{}
	for _, ent := range apps.All() {
		g := base
		if ent.NeedsWeights {
			g = weighted
		}
		p := conformanceParams(ent)
		cg := built[g]
		prog, err := ent.New(cg, p)
		if err != nil {
			t.Fatal(err)
		}
		if !apps.IsMonotoneMin(prog) {
			continue
		}
		declared[ent.Name] = true
		t.Run(ent.Name, func(t *testing.T) {
			// The value pool: every distinct lane of every iteration.
			identity := prog.Identity()
			seen := map[uint64]bool{identity: true}
			r := core.NewRunner(cg, core.Options{Workers: 2})
			defer r.Close()
			for iters := 0; ; iters++ {
				res := core.Run(r, prog, iters)
				for _, v := range res.Props {
					seen[v] = true
				}
				if res.Iterations < iters || iters >= ent.MaxIters(p) {
					break
				}
			}
			pool := make([]uint64, 0, len(seen))
			for v := range seen {
				pool = append(pool, v)
			}
			slices.Sort(pool)
			if len(pool) < 8 {
				t.Fatalf("only %d distinct lane values to test with", len(pool))
			}
			weights := []float32{0, 1, 1, 2.5, 9.75}
			rng := rand.New(rand.NewSource(21))
			pick := func() uint64 {
				if rng.Intn(8) == 0 {
					return identity
				}
				return pool[rng.Intn(len(pool))]
			}
			for i := 0; i < 20000; i++ {
				a, b, c := pick(), pick(), pick()
				if i%5 == 0 {
					b = a // equal values are the case a strict < gets wrong
				}
				v := uint32(rng.Intn(g.NumVertices))
				ab := prog.Combine(a, b)
				if prog.Combine(a, a) != a {
					t.Fatalf("Combine(%#x, %#x) = %#x: not idempotent", a, a, prog.Combine(a, a))
				}
				if ba := prog.Combine(b, a); ab != ba {
					t.Fatalf("Combine(%#x, %#x) = %#x but reversed %#x: not commutative", a, b, ab, ba)
				}
				if ab != a && ab != b {
					t.Fatalf("Combine(%#x, %#x) = %#x: not a selection", a, b, ab)
				}
				if l, r := prog.Combine(ab, c), prog.Combine(a, prog.Combine(b, c)); l != r {
					t.Fatalf("Combine over (%#x, %#x, %#x): %#x vs %#x: not associative", a, b, c, l, r)
				}
				if got := prog.Combine(identity, a); got != a {
					t.Fatalf("Combine(Identity, %#x) = %#x", a, got)
				}
				if nv, changed := prog.Apply(a, b, v); nv != ab || changed != (ab != a) {
					t.Fatalf("Apply(%#x, %#x) = (%#x, %v), want (%#x, %v)", a, b, nv, changed, ab, ab != a)
				}
				if nv, changed := prog.Apply(a, identity, v); nv != a || changed {
					t.Fatalf("Apply(%#x, Identity) = (%#x, %v)", a, nv, changed)
				}
				// lo ≤ hi in Combine's order; the same edge must keep it.
				lo, hi := ab, a^b^ab
				w := weights[rng.Intn(len(weights))]
				mlo, mhi := prog.Message(lo, v, w), prog.Message(hi, v, w)
				if got := prog.Combine(mlo, mhi); got != mlo {
					t.Fatalf("Message(%#x) = %#x, Message(%#x) = %#x at w=%v: a smaller source sent the larger message",
						lo, mlo, hi, mhi, w)
				}
			}
		})
	}
	for _, name := range []string{"cc", "sssp"} {
		if !declared[name] {
			t.Errorf("%s does not declare the monotone-min trait", name)
		}
	}
	for _, name := range []string{"bfs", "kcore", "lp", "pr", "ppr", "wpr", "tc"} {
		if declared[name] {
			t.Errorf("%s declares the monotone-min trait; its answer is not a schedule-free fixpoint", name)
		}
	}
}
