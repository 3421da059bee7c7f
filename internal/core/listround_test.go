package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/perfmodel"
	"repro/internal/sched"
)

// listRoundRun is one run the list-round tests drive: a program on a graph,
// from a seed or cold.
type listRoundRun struct {
	name string
	cg   *Graph
	mk   func() apps.Program
	seed *Seed
}

// listRoundRuns are the runs whose rounds are mostly list-driven, of three
// kinds: bfs from T×1's two highest out-degree vertices, 0 and 1 (a round
// from one hub, two dense pulls, a list-driven tail); bfs from D×1's two
// corners (every round list-driven); and cc on T×1 after a b16 batch,
// seeded by cc's planner (list-driven rounds only).
func listRoundRuns(t *testing.T) []listRoundRun {
	t.Helper()
	t1 := analogs1[gen.Twitter]()
	ct1 := BuildGraph(t1)
	deg := t1.OutDegrees()
	for v := range deg {
		if v > 1 && deg[v] > deg[1] {
			t.Fatalf("T×1 vertex %d has out-degree %d, above root 1's %d: 0 and 1 are no longer its top hubs", v, deg[v], deg[1])
		}
	}
	cd1 := BuildGraph(analogs1[gen.DimacsUSA]())
	ent, err := apps.Lookup("cc")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(ct1, Options{Workers: 1})
	pred := Run(r, apps.NewConnComp(), 1<<20).Props
	r.Close()
	ops := freshInserts(t1, 16)
	g1 := graph.ApplyEdgeOps(t1, ops)
	plan, err := ent.IncrementalSeed(apps.SeedInput{Vertices: g1.NumVertices, Pred: pred, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	bfs := func(root uint32) func() apps.Program { return func() apps.Program { return apps.NewBFS(root) } }
	return []listRoundRun{
		{"bfs T×1 root 0", ct1, bfs(0), nil},
		{"bfs T×1 root 1", ct1, bfs(1), nil},
		{"bfs D×1 root 0", cd1, bfs(0), nil},
		{"bfs D×1 root N-1", cd1, bfs(uint32(cd1.N - 1)), nil},
		{"cc T×1 b16", BuildGraph(g1), func() apps.Program { return apps.NewConnComp() }, &Seed{Props: plan.Props, Frontier: plan.Frontier}},
	}
}

// TestListRoundCountersPinned holds the full Edge and Vertex Record
// counters of listRoundRuns, in hybrid mode at one and two workers, and the
// rounds' directions, to the values measured before the min kinds' push
// lanes went inline, the Vertex phase began taking a list-driven round's
// census and the touched set was walked by its summary: none of those may
// change what a Record run reports. Every list-driven round of these runs
// fits one chunk, so no CAS can race and the write split is exact at both
// worker counts. Two cold cc runs, dense pulls but for T×1's last round,
// pin the Vertex counters of selectBody's dense loop as well.
func TestListRoundCountersPinned(t *testing.T) {
	runs := listRoundRuns(t)
	cc := func() apps.Program { return apps.NewConnComp() }
	runs = append(runs, listRoundRun{"cc T×1", runs[0].cg, cc, nil}, listRoundRun{"cc D×1", runs[2].cg, cc, nil})
	mesh := strings.Repeat("s", 152)
	type counters struct {
		dirs         string
		edge, vertex perfmodel.Counters
	}
	type c = perfmodel.Counters
	pinned := map[string][2]counters{
		"bfs T×1 root 0": {
			{"s<<s", c{EdgesProcessed: 14107, VectorsProcessed: 16147, TLSWrites: 4121, SharedWrites: 6767, MergeOps: 64, FrontierSkips: 34004, InvalidLanes: 8740, LocalAccesses: 4121, SkippedWrites: 7334}, c{SharedWrites: 19856}},
			{"s<<s", c{EdgesProcessed: 14111, VectorsProcessed: 16209, TLSWrites: 4125, SharedWrites: 6766, MergeOps: 128, FrontierSkips: 34237, InvalidLanes: 8742, LocalAccesses: 4125, SkippedWrites: 7334}, c{SharedWrites: 19856}},
		},
		"bfs T×1 root 1": {
			{"s<<s", c{EdgesProcessed: 8722, VectorsProcessed: 14597, TLSWrites: 5371, SharedWrites: 6767, MergeOps: 64, FrontierSkips: 30598, InvalidLanes: 8740, LocalAccesses: 5371, SkippedWrites: 1950}, c{SharedWrites: 19466}},
			{"s<<s", c{EdgesProcessed: 8730, VectorsProcessed: 14659, TLSWrites: 5379, SharedWrites: 6766, MergeOps: 128, FrontierSkips: 30819, InvalidLanes: 8742, LocalAccesses: 5379, SkippedWrites: 1950}, c{SharedWrites: 19466}},
		},
		// The mesh is symmetric about its centre, so both corners read alike.
		"bfs D×1 root 0": {
			{mesh, c{EdgesProcessed: 11511, VectorsProcessed: 5832, SharedWrites: 5831, FrontierSkips: 11511, SkippedWrites: 5680}, c{SharedWrites: 11662}},
			{mesh, c{EdgesProcessed: 11511, VectorsProcessed: 5832, SharedWrites: 5831, FrontierSkips: 11511, SkippedWrites: 5680}, c{SharedWrites: 11662}},
		},
		"bfs D×1 root N-1": {
			{mesh, c{EdgesProcessed: 11511, VectorsProcessed: 5832, SharedWrites: 5831, FrontierSkips: 11511, SkippedWrites: 5680}, c{SharedWrites: 11662}},
			{mesh, c{EdgesProcessed: 11511, VectorsProcessed: 5832, SharedWrites: 5831, FrontierSkips: 11511, SkippedWrites: 5680}, c{SharedWrites: 11662}},
		},
		"cc T×1": {
			{"<<<s", c{EdgesProcessed: 743866, VectorsProcessed: 278582, TLSWrites: 743780, SharedWrites: 17447, MergeOps: 96, FrontierSkips: 336220, InvalidLanes: 34152, LocalAccesses: 743780, SkippedWrites: 7}, c{SharedWrites: 30558}},
			{"<<<s", c{EdgesProcessed: 743866, VectorsProcessed: 278582, TLSWrites: 743780, SharedWrites: 17445, MergeOps: 192, FrontierSkips: 336220, InvalidLanes: 34152, LocalAccesses: 743780, SkippedWrites: 7}, c{SharedWrites: 30558}},
		},
		"cc D×1": {
			{"<<<<<<<<<<<<", c{EdgesProcessed: 195627, VectorsProcessed: 69984, TLSWrites: 195627, SharedWrites: 49982, MergeOps: 168, FrontierSkips: 80637, InvalidLanes: 3672, LocalAccesses: 195627}, c{SharedWrites: 87496}},
			{"<<<<<<<<<<<<", c{EdgesProcessed: 195627, VectorsProcessed: 69984, TLSWrites: 195627, SharedWrites: 49886, MergeOps: 264, FrontierSkips: 80637, InvalidLanes: 3672, LocalAccesses: 195627}, c{SharedWrites: 87496}},
		},
		"cc T×1 b16": {
			{"ss", c{EdgesProcessed: 298, VectorsProcessed: 84, SharedWrites: 233, SkippedWrites: 65}, c{SharedWrites: 466}},
			{"ss", c{EdgesProcessed: 298, VectorsProcessed: 84, SharedWrites: 233, SkippedWrites: 65}, c{SharedWrites: 466}},
		},
	}
	for _, run := range runs {
		for i, workers := range []int{1, 2} {
			want, ok := pinned[run.name]
			if !ok {
				t.Fatalf("%s: no pinned row", run.name)
			}
			r := NewRunner(run.cg, Options{Workers: workers, Record: true, Trace: true})
			res, err := RunCtx(context.Background(), r, run.mk(), 1<<20, run.seed)
			r.Close()
			if err != nil || res.Seeded != (run.seed != nil) {
				t.Fatalf("%s w%d: err=%v seeded=%v", run.name, workers, err, res.Seeded)
			}
			got := counters{res.Trace.Directions, res.EdgeCounters, res.VertexCounters}
			if got != want[i] {
				t.Errorf("%s w%d:\n got  %+v\n want %+v", run.name, workers, got, want[i])
			}
		}
	}
}

// armAtRound is a bfs whose PreIteration arms the core/chunk failpoint
// before round k (counted from 1), so the round's first chunk panics. It
// embeds *apps.BFS, whose fused kind it keeps, so every round runs the
// bodies a plain bfs runs.
type armAtRound struct {
	*apps.BFS
	k, round int
	disarm   func()
}

func (a *armAtRound) PreIteration(props []uint64) {
	if a.round++; a.round == a.k {
		disarm, err := fault.Enable("core/chunk", "panic*1")
		if err != nil {
			panic(err)
		}
		a.disarm = disarm
	}
	a.BFS.PreIteration(props)
}

// TestListRoundAbortLeavesNoState fires the core/chunk failpoint inside a
// list-driven round — an inline one on the mesh, one cut into several chunks
// on T×1 — and then runs the same bfs cleanly on the same Runner, whose
// recycled ExecContext carries whatever the aborted run left: touched bits
// and their summary bits, and a census the aborted round's Vertex phase
// took. The clean run must match a fresh Runner's in lanes, counters and
// directions. One worker keeps a multi-chunk round's CAS order, and so its
// write counters, fixed.
func TestListRoundAbortLeavesNoState(t *testing.T) {
	cd1 := BuildGraph(analogs1[gen.DimacsUSA]())
	ct1 := BuildGraph(analogs1[gen.Twitter]())
	for _, c := range []struct {
		name       string
		cg         *Graph
		root       uint32
		workers, k int
		chunks     func(int64) bool
	}{
		// The mesh's fifth round is a list-driven round of one chunk.
		{"inline", cd1, 0, 2, 5, func(n int64) bool { return n == 1 }},
		// From a low-degree T×1 root, the second round is list-driven and cut
		// into several chunks even at one worker.
		{"multi-chunk", ct1, 500, 1, 2, func(n int64) bool { return n > 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := Options{Workers: c.workers, Record: true, Trace: true}
			fresh := NewRunner(c.cg, opt)
			want := Run(fresh, apps.NewBFS(c.root), 1<<20)
			fresh.Close()
			if d := want.Trace.Directions; len(d) < c.k || d[c.k-1] != 's' {
				t.Fatalf("round %d of %q is not list-driven", c.k, d)
			}
			r := NewRunner(c.cg, opt)
			defer r.Close()
			p := &armAtRound{BFS: apps.NewBFS(c.root), k: c.k}
			res, err := RunCtx(context.Background(), r, p, 1<<20, nil)
			if p.disarm != nil {
				p.disarm()
			}
			var pe *sched.PanicError
			if !errors.As(err, &pe) || res.Iterations != c.k {
				t.Fatalf("RunCtx = %v after %d iterations, want a *sched.PanicError in round %d", err, res.Iterations, c.k)
			}
			var pushChunks int64
			for _, ph := range res.Trace.Phases {
				if ph.Phase == "edge-push" {
					pushChunks = ph.Chunks
				}
			}
			if prior := int64(c.k - 1); !c.chunks(pushChunks - prior) {
				t.Fatalf("the aborted round cut %d chunks", pushChunks-prior)
			}
			got := Run(r, apps.NewBFS(c.root), 1<<20)
			if !slices.Equal(got.Props, want.Props) {
				t.Error("the clean run's lanes differ from a fresh Runner's")
			}
			if got.EdgeCounters != want.EdgeCounters || got.VertexCounters != want.VertexCounters ||
				got.Trace.Directions != want.Trace.Directions {
				t.Errorf("the clean run differs from a fresh Runner's:\n got  %s %+v %+v\n want %s %+v %+v",
					got.Trace.Directions, got.EdgeCounters, got.VertexCounters,
					want.Trace.Directions, want.EdgeCounters, want.VertexCounters)
			}
		})
	}
}

// TestMultiChunkListRounds: bfs from low-degree T×1 roots runs list-driven
// rounds cut into several chunks at four workers — the CAS arm of the push
// lanes, with touched and summary bits ORed from several goroutines at once
// — and ends at the sequential reference's lanes at one, two and four
// workers. CI runs it under the race detector.
func TestMultiChunkListRounds(t *testing.T) {
	g := analogs1[gen.Twitter]()
	cg := BuildGraph(g)
	for _, root := range []uint32{500, 4000} {
		want := apps.ReferenceBFS(g, root)
		for _, workers := range []int{1, 2, 4} {
			r := NewRunner(cg, Options{Workers: workers, Trace: true})
			res := Run(r, apps.NewBFS(root), 1<<20)
			r.Close()
			label := fmt.Sprintf("root %d w%d", root, workers)
			if !slices.Equal(res.Props, want) {
				t.Fatalf("%s: lanes differ from the reference", label)
			}
			for _, ph := range res.Trace.Phases {
				if ph.Phase == "edge-push" && workers == 4 && ph.Chunks <= ph.Iters {
					t.Errorf("%s: %d push rounds in %d chunks, want a round cut in several", label, ph.Iters, ph.Chunks)
				}
			}
		}
	}
}

// TestTouchedSet: a list-driven round's touched set, filled from one
// goroutine (add) or from four at once (addAtomic, the multi-chunk round's
// insert), drains its vertices once each in ascending order and is empty
// afterwards, summary words included, so the next round starts clean.
func TestTouchedSet(t *testing.T) {
	const n = 3*4096 + 100 // three full summary words and part of a fourth
	rng := rand.New(rand.NewSource(5))
	vs := make([]uint32, 3000)
	for i := range vs {
		vs[i] = uint32(rng.Intn(n))
	}
	vs = append(vs, 0, 63, 64, 4095, 4096, n-1)
	want := slices.Compact(slices.Sorted(slices.Values(vs)))
	for _, concurrent := range []bool{false, true} {
		s := touchedSet{words: make([]uint64, (n+63)/64), sum: make([]uint64, (n+4095)/4096)}
		for round := 0; round < 2; round++ {
			if concurrent {
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < len(vs); i += 4 {
							s.addAtomic(vs[i])
						}
					}()
				}
				wg.Wait()
			} else {
				for _, v := range vs {
					s.add(v)
				}
			}
			if got := s.drain(nil); !slices.Equal(got, want) {
				t.Fatalf("concurrent=%v round %d: drained %d vertices, want %d (or out of order)", concurrent, round, len(got), len(want))
			}
			if slices.ContainsFunc(s.words, func(w uint64) bool { return w != 0 }) ||
				slices.ContainsFunc(s.sum, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("concurrent=%v round %d: the drained set is not empty", concurrent, round)
			}
		}
	}
}

// TestCarriedCensusMatchesWalk drives list-driven rounds by hand — bfs on
// the mesh (one chunk a round) and from a low-degree T×1 root (rounds cut
// into several chunks), cc seeded after a b16 batch — at one, two and four
// workers, and after each round holds the census the Vertex phase took to
// the bitmap walk of the frontier it published: the same count, list and
// out-degree sum.
func TestCarriedCensusMatchesWalk(t *testing.T) {
	runs := listRoundRuns(t)
	ct1 := runs[0].cg
	runs = append(runs[2:], listRoundRun{"bfs T×1 root 500", ct1, func() apps.Program { return apps.NewBFS(500) }, nil})
	for _, run := range runs {
		for _, workers := range []int{1, 2, 4} {
			r := NewRunner(run.cg, Options{Workers: workers})
			ec := r.NewContext()
			p := run.mk()
			ec.Init(p)
			if run.seed != nil && !applySeed(ec, p, run.seed) {
				t.Fatalf("%s: the seed did not apply", run.name)
			}
			rounds, multi := 0, false
			for cs := ec.takeCensus(); cs.list != nil; rounds++ {
				cost := runEdgePushSparse(ec, p, cs.list, cs.chunks(workers))
				multi = multi || cost.edgeChunks > 1
				runVertex(ec, p, true, cost.edgeChunks == 1)
				if !ec.carried {
					t.Fatalf("%s w%d round %d: the Vertex phase took no census", run.name, workers, rounds)
				}
				got := ec.takeCensus()
				got.list = slices.Clone(got.list)
				cs = ec.takeCensus() // carried was consumed: this one walks the bitmap
				if got.count != cs.count || got.outEdges != cs.outEdges || !slices.Equal(got.list, cs.list) {
					t.Fatalf("%s w%d round %d: carried census (%d vertices, %d out-edges) differs from the walk's (%d, %d)",
						run.name, workers, rounds, got.count, got.outEdges, cs.count, cs.outEdges)
				}
			}
			r.Close()
			if rounds < 2 || (run.name == "bfs T×1 root 500" && workers == 4 && !multi) {
				t.Errorf("%s w%d: %d list-driven rounds (multi-chunk %v)", run.name, workers, rounds, multi)
			}
		}
	}
}

// TestListRoundAllocsConstant: list-driven rounds allocate nothing. A mesh
// bfs from a corner (152 list-driven rounds) and one from the centre (about
// half as many) allocate the same one or two objects per run, the props the
// run hands back among them, on a Runner whose recycled ExecContext has
// already grown every list a round keeps.
func TestListRoundAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cg := BuildGraph(analogs1[gen.DimacsUSA]())
	r := NewRunner(cg, Options{Workers: 2})
	defer r.Close()
	allocs := func(root uint32) (float64, int) {
		p := apps.NewBFS(root)
		var res Result
		n := testing.AllocsPerRun(20, func() { res = Run(r, p, 1<<20) })
		if res.SparseIterations != res.Iterations {
			t.Fatalf("bfs from %d: %d of %d rounds list-driven, want all", root, res.SparseIterations, res.Iterations)
		}
		return n, res.Iterations
	}
	corner, long := allocs(0)
	centre, short := allocs(uint32(cg.N/2 + 40))
	if long < 100 || short >= long*3/4 {
		t.Fatalf("the searches run %d and %d rounds, want ≥ 100 and well under that", long, short)
	}
	if corner != centre || corner > 2 {
		t.Errorf("allocations per run: %v over %d rounds, %v over %d; want one small constant", corner, long, centre, short)
	}
}
