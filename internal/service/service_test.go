package service

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"sync"
	"testing"
	"time"

	grazelle "repro"
	"repro/internal/fault"
	"repro/internal/qcache"
	"repro/internal/testgraph"
)

var (
	graphOnce sync.Once
	testG     *grazelle.Graph
	graphErr  error
)

func sharedGraph(t *testing.T) *grazelle.Graph {
	t.Helper()
	graphOnce.Do(func() {
		c := testgraph.Skewed()
		testG, graphErr = grazelle.NewGraph(c.G.NumVertices, c.G.Edges, c.G.Weighted)
	})
	if graphErr != nil {
		t.Fatal(graphErr)
	}
	return testG
}

// newService is a service with a result cache over a real store holding the
// shared graph under each of names (default "g").
func newService(t *testing.T, sc grazelle.StoreConfig, names ...string) *Service {
	t.Helper()
	sc.Workers = 2
	sc.Options = grazelle.Options{Trace: true}
	st, err := grazelle.OpenStore(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if len(names) == 0 {
		names = []string{"g"}
	}
	for _, name := range names {
		if err := st.Add(name, sharedGraph(t)); err != nil {
			t.Fatal(err)
		}
	}
	return New(Config{
		Store:                st,
		Cache:                qcache.New(qcache.Config{Budget: 64 << 20}),
		MaxTimeout:           time.Minute,
		Workers:              2,
		IncrementalThreshold: 4096,
		RunHistory:           32,
	})
}

// perRun matches the two response fields that differ between two runs of the
// same query.
var perRun = regexp.MustCompile(`"run_id":"[^"]*"|"elapsed_ms":[0-9]+`)

func sameAnswer(a, b []byte) bool {
	return bytes.Equal(perRun.ReplaceAll(a, nil), perRun.ReplaceAll(b, nil))
}

func arm(t *testing.T, site, spec string) {
	t.Helper()
	disarm, err := fault.Enable(site, spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disarm)
}

// waitFor polls until cond holds; the conditions here are "another goroutine
// has registered its flight", which has no event to wait on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestExecuteOutcomes is the outcome table: the same query answers miss, then
// hit with the stored bytes, bypass under no_cache (a fresh run, same answer),
// and coalesced for a caller arriving while the leader is still in the spine.
func TestExecuteOutcomes(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	ctx := context.Background()
	for _, q := range []Query{
		{Graph: "g", App: "pr", Iters: 4},
		{Graph: "g", App: "bfs", Root: 3, Values: true},
		{Graph: "g", App: "kcore", K: 2},
	} {
		miss, outcome, err := s.Execute(ctx, q)
		if err != nil || outcome != Miss {
			t.Fatalf("%s first: outcome %q err %v", q.App, outcome, err)
		}
		hit, outcome, err := s.Execute(ctx, q)
		if err != nil || outcome != Hit || !bytes.Equal(hit.Payload, miss.Payload) || hit.RunID != miss.RunID {
			t.Errorf("%s repeat: outcome %q err %v, same bytes %t", q.App, outcome, err, bytes.Equal(hit.Payload, miss.Payload))
		}
		q.NoCache = true
		fresh, outcome, err := s.Execute(ctx, q)
		if err != nil || outcome != Bypass || fresh.RunID == miss.RunID || !sameAnswer(fresh.Payload, miss.Payload) {
			t.Errorf("%s no_cache: outcome %q err %v\n%.200s\n%.200s", q.App, outcome, err, fresh.Payload, miss.Payload)
		}
	}
	if _, outcome, err := s.Execute(ctx, Query{Graph: "g", App: "nope"}); err == nil || outcome != "" {
		t.Errorf("unknown app: outcome %q err %v", outcome, err)
	}
	if _, _, err := s.Execute(ctx, Query{Graph: "nope", App: "pr"}); !errors.Is(err, grazelle.ErrGraphNotFound) {
		t.Errorf("unknown graph: %v", err)
	}

	// The leader dawdles at the handler failpoint; the second caller finds its
	// flight and rides along on the one admission slot.
	arm(t, "serve/handler", "delay:100ms*1")
	q := Query{Graph: "g", App: "cc"}
	missesBefore := s.cfg.Cache.Stats().Misses
	type answer struct {
		res     qcache.Result
		outcome Outcome
		err     error
	}
	leader := make(chan answer, 1)
	go func() {
		res, outcome, err := s.Execute(ctx, q)
		leader <- answer{res, outcome, err}
	}()
	waitFor(t, "the leader's flight", func() bool { return s.cfg.Cache.Stats().Misses == missesBefore+1 })
	res, outcome, err := s.Execute(ctx, q)
	lead := <-leader
	if err != nil || lead.err != nil || outcome != Coalesced || lead.outcome != Miss || !bytes.Equal(res.Payload, lead.res.Payload) {
		t.Errorf("coalesced pair: follower %q %v, leader %q %v", outcome, err, lead.outcome, lead.err)
	}
	if runs := s.cfg.Store.Stats().Runs; runs != 7 {
		t.Errorf("store counts %d engine runs, want 7 (three misses, three bypasses, one coalesced pair)", runs)
	}
}

// TestExecuteWithoutCache: a service with no cache bypasses every time.
func TestExecuteWithoutCache(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	s.cfg.Cache = nil
	for i := 0; i < 2; i++ {
		if _, outcome, err := s.Execute(context.Background(), Query{Graph: "g", App: "cc"}); err != nil || outcome != Bypass {
			t.Fatalf("outcome %q err %v", outcome, err)
		}
	}
	if s.ring.Len() != 2 {
		t.Errorf("%d run records, want 2", s.ring.Len())
	}
}

// TestAdmissionRejection: a query refused at admission has touched nothing —
// the cold graph stays cold, no run is recorded — and the slot count is whole
// afterwards.
func TestAdmissionRejection(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{DataDir: t.TempDir(), MemBudgetBytes: 1, MaxInFlight: 1, MaxQueue: 0}, "g", "other")
	before := s.cfg.Store.Stats() // adding "other" evicted the idle "g"
	release, err := s.cfg.Store.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Execute(context.Background(), Query{Graph: "g", App: "pr", NoCache: true})
	if !errors.Is(err, grazelle.ErrOverloaded) {
		t.Fatalf("want an overload refusal, got %v", err)
	}
	after := s.cfg.Store.Stats()
	if after.Rehydrations != before.Rehydrations || after.Resident != before.Resident || after.Runs != before.Runs || s.ring.Len() != 0 {
		t.Errorf("a rejected query touched graph state: %+v -> %+v, %d records", before, after, s.ring.Len())
	}
	release()
	if _, _, err := s.Execute(context.Background(), Query{Graph: "g", App: "pr", NoCache: true}); err != nil {
		t.Fatalf("query after the slot came back: %v", err)
	}
	if st := s.cfg.Store.Stats(); st.InFlight != 0 || st.Rehydrations != before.Rehydrations+1 {
		t.Errorf("after one admitted query: in_flight %d, rehydrations %d -> %d", st.InFlight, before.Rehydrations, st.Rehydrations)
	}
}

// TestHandlerPanicContained: a panic with the admission slot held unwinds
// through the cache flight to the caller (the codec's recovery wrapper), the
// slot comes back, and the next identical query runs fresh.
func TestHandlerPanicContained(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{MaxInFlight: 1, MaxQueue: 0})
	arm(t, "serve/handler", "panic*1")
	q := Query{Graph: "g", App: "pr", Iters: 2}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the injected panic did not reach the caller")
			}
		}()
		s.Execute(context.Background(), q)
	}()
	if st := s.cfg.Store.Stats(); st.InFlight != 0 {
		t.Fatalf("admission slot leaked: in_flight %d", st.InFlight)
	}
	if _, outcome, err := s.Execute(context.Background(), q); err != nil || outcome != Miss {
		t.Errorf("query after the panic: outcome %q err %v", outcome, err)
	}
}

// TestDeadlineFailsCoalescedRun: a run past the request deadline (MaxTimeout)
// fails with context.DeadlineExceeded for the leader and for a caller that
// coalesced onto it — promoted when the leader gave up, it runs under its own
// deadline — the leader's run is recorded as failed, and no admission slot
// leaks.
func TestDeadlineFailsCoalescedRun(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{MaxInFlight: 1, MaxQueue: 1})
	s.cfg.MaxTimeout = 200 * time.Millisecond
	q := Query{Graph: "g", App: "pr", Iters: 1 << 20}
	leader := make(chan error, 1)
	var leaderRun string
	go func() {
		res, _, err := s.Execute(context.Background(), q)
		leaderRun = res.RunID
		leader <- err
	}()
	waitFor(t, "the leader's flight", func() bool { return s.cfg.Cache.Stats().Misses == 1 })
	if _, outcome, err := s.Execute(context.Background(), q); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("follower: outcome %q err %v", outcome, err)
	}
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("leader: %v", err)
	}
	if rec, ok := s.ring.Get(leaderRun); !ok || rec.Error == "" {
		t.Errorf("timed-out run %q not recorded as failed: %+v", leaderRun, rec)
	}
	if st := s.cfg.Store.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("admission slot leaked: in_flight %d queued %d", st.InFlight, st.Queued)
	}
}

// TestExecuteRouted is the worker's half of a routed run: filed under the
// router's ID in this process's ring and run histogram, answered with the
// bytes a direct query gets, never through this process's cache or seed table,
// refused before any run when the replica's shape is not the router's, and
// held to this process's own deadline cap.
func TestExecuteRouted(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	ctx := context.Background()
	g := sharedGraph(t)
	q := Query{Graph: "g", App: "cc", Values: true}

	_, _, err := s.ExecuteRouted(ctx, q, "router-1", g.NumVertices()+1, g.NumEdges())
	var oos *OutOfSyncError
	if !errors.As(err, &oos) || oos.WantVertices != g.NumVertices()+1 {
		t.Fatalf("want the typed out-of-sync refusal, got %v", err)
	}
	if st := s.cfg.Store.Stats(); st.Runs != 0 || st.InFlight != 0 || s.ring.Len() != 0 || s.runSeconds.Count() != 0 {
		t.Fatalf("a refused run left a trace: %+v, %d records", st, s.ring.Len())
	}

	body, rec, err := s.ExecuteRouted(ctx, q, "router-2", g.NumVertices(), g.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := s.Execute(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"run_id":"router-2"`)) || !sameAnswer(body, direct.Payload) {
		t.Errorf("routed body is not the direct answer under the router's ID:\n%.200s\n%.200s", body, direct.Payload)
	}
	if filed, ok := s.ring.Get("router-2"); !ok || rec.ID != "router-2" || filed.Trace.Directions == "" || s.runSeconds.Count() != 2 {
		t.Errorf("routed run not filed under the router's ID: %+v (found %t), %d runs observed", rec, ok, s.runSeconds.Count())
	}
	// Only the direct query went through the cache and left a seed candidate.
	if cs := s.cfg.Cache.Stats(); cs.Misses != 1 || cs.Entries != 1 || cs.SeedEntries != 1 {
		t.Errorf("cache after one routed and one direct run: %+v", cs)
	}
	if _, outcome, _ := s.Execute(ctx, q); outcome != Hit {
		t.Errorf("direct repeat: %q", outcome)
	}

	s.cfg.MaxTimeout = 20 * time.Millisecond
	long := Query{Graph: "g", App: "pr", Iters: 1 << 20, TimeoutMS: 60_000}
	if _, rec, err := s.ExecuteRouted(ctx, long, "router-3", g.NumVertices(), g.NumEdges()); !errors.Is(err, context.DeadlineExceeded) || rec.ID != "router-3" {
		t.Errorf("routed run outlived this process's deadline cap: %v (record %q)", err, rec.ID)
	}
}

// TestIncrementalCounters mirrors cli_test.go's incremental suites in-process:
// a query after a small mutation warm-starts from its predecessor (response,
// record and counters all say so), a repeat hits the cache without moving a
// counter, and a seed that fails to install is counted as a fallback.
func TestIncrementalCounters(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	ctx := context.Background()
	q := Query{Graph: "g", App: "cc", Values: true}
	cold, _, err := s.Execute(ctx, q)
	if err != nil || bytes.Contains(cold.Payload, []byte(`"incremental"`)) {
		t.Fatalf("cold query: %v %.200s", err, cold.Payload)
	}
	mutate := func(src, dst uint32) {
		t.Helper()
		if _, _, err := s.cfg.Store.ApplyEdges("g", []grazelle.EdgeOp{{Src: src, Dst: dst, Weight: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	mutate(1, 2)
	warm, outcome, err := s.Execute(ctx, q)
	if err != nil || outcome != Miss || !bytes.Contains(warm.Payload, []byte(`"incremental":true`)) {
		t.Fatalf("query after a mutation: outcome %q err %v %.200s", outcome, err, warm.Payload)
	}
	if rec, _ := s.ring.Get(warm.RunID); !rec.Incremental || rec.SeedVersion == 0 {
		t.Errorf("run record not incremental: %+v", rec)
	}
	if hit, outcome, _ := s.Execute(ctx, q); outcome != Hit || !bytes.Equal(hit.Payload, warm.Payload) {
		t.Errorf("repeat: %q", outcome)
	}
	if seeded, fell, used := s.incrementalSeeded.Value(), s.incrementalFallback.Value(), s.cfg.Cache.Stats().SeedsUsed; seeded != 1 || fell != 0 || used != 1 {
		t.Errorf("seeded %d fallback %d seeds used %d, want 1 0 1", seeded, fell, used)
	}

	arm(t, "core/incremental-seed", "panic*1")
	mutate(3, 4)
	degraded, _, err := s.Execute(ctx, q)
	if err != nil || bytes.Contains(degraded.Payload, []byte(`"incremental"`)) {
		t.Fatalf("query under a seed fault: %v %.200s", err, degraded.Payload)
	}
	q.NoCache = true
	if ref, _, _ := s.Execute(ctx, q); !sameAnswer(ref.Payload, degraded.Payload) {
		t.Errorf("fallback answer differs from a cold run's")
	}
	if seeded, fell := s.incrementalSeeded.Value(), s.incrementalFallback.Value(); seeded != 1 || fell != 1 {
		t.Errorf("seeded %d fallback %d, want 1 1", seeded, fell)
	}
}

// TestSeedsOnlyForPlannedApps: only an app with an incremental planner (cc)
// leaves a seed candidate behind, one per graph. bfs and ppr queries on
// distinct roots leave none — a candidate per root would pin one lane array
// each in a table no budget bounds, on a graph that may never be mutated.
func TestSeedsOnlyForPlannedApps(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	ctx := context.Background()
	for root := uint32(0); root < 32; root++ {
		for _, app := range []string{"bfs", "ppr"} {
			if _, _, err := s.Execute(ctx, Query{Graph: "g", App: app, Root: root}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cs := s.cfg.Cache.Stats(); cs.Entries != 64 || cs.SeedEntries != 0 || cs.SeedBytes != 0 {
		t.Fatalf("after 64 bfs/ppr queries: %d entries, %d seeds holding %d bytes; want 64, 0, 0", cs.Entries, cs.SeedEntries, cs.SeedBytes)
	}
	if _, _, err := s.Execute(ctx, Query{Graph: "g", App: "cc"}); err != nil {
		t.Fatal(err)
	}
	if cs := s.cfg.Cache.Stats(); cs.SeedEntries != 1 {
		t.Fatalf("after one cc query: %d seeds, want 1", cs.SeedEntries)
	}
}

// TestExecuteBatch: duplicates compute once and report coalesced, resident
// entries hit, a bad entry fails alone, and the distinct misses share one
// pinned handle per graph — where the same queries one by one re-acquire (and,
// under a one-byte budget, rehydrate) their graph every time.
func TestExecuteBatch(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{DataDir: t.TempDir(), MemBudgetBytes: 1}, "a", "b")
	ctx := context.Background()
	if _, _, err := s.Execute(ctx, Query{Graph: "a", App: "cc"}); err != nil {
		t.Fatal(err)
	}
	runs := s.cfg.Store.Stats().Runs
	out := s.ExecuteBatch(ctx, []Query{
		{Graph: "a", App: "cc"},
		{Graph: "a", App: "bfs", Root: 1},
		{Graph: "a", App: "bfs", Root: 1, Iters: 99}, // bfs ignores iters: same entry
		{Graph: "a", App: "nope"},
		{Graph: "a", App: "pr", Iters: 2, NoCache: true},
	}, 0)
	want := []Outcome{Hit, Miss, Coalesced, "", Miss}
	for i, br := range out {
		if br.Outcome != want[i] || (br.Err != nil) != (want[i] == "") || (br.Err == nil && len(br.Result.Payload) == 0) {
			t.Errorf("entry %d: outcome %q err %v, want %q", i, br.Outcome, br.Err, want[i])
		}
	}
	if !bytes.Equal(out[1].Result.Payload, out[2].Result.Payload) {
		t.Error("a deduped entry got different bytes from the one that computed")
	}
	if got := s.cfg.Store.Stats().Runs - runs; got != 2 {
		t.Errorf("batch ran the engine %d times, want 2", got)
	}

	alternating := []Query{
		{Graph: "a", App: "bfs", Root: 2, NoCache: true}, {Graph: "b", App: "bfs", Root: 2, NoCache: true},
		{Graph: "a", App: "bfs", Root: 3, NoCache: true}, {Graph: "b", App: "bfs", Root: 3, NoCache: true},
	}
	// One by one, each query finds the other graph's run has evicted its own.
	before := s.cfg.Store.Stats().Rehydrations
	for _, q := range alternating {
		if _, _, err := s.Execute(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	single := s.cfg.Store.Stats().Rehydrations - before
	for _, br := range s.ExecuteBatch(ctx, alternating, 0) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
	}
	batched := s.cfg.Store.Stats().Rehydrations - before - single
	if batched > 2 || single < 3 {
		t.Errorf("rehydrations: %d for the batch (want one per graph at most), %d one by one", batched, single)
	}
}

// TestRunRecordStages: a computed run's stages are all stamped and sum to its
// wall time; run IDs carry a per-process token.
func TestRunRecordStages(t *testing.T) {
	s := newService(t, grazelle.StoreConfig{})
	res, _, err := s.Execute(context.Background(), Query{Graph: "g", App: "pr", Values: true})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := regexp.MatchString(`^run-[0-9a-f]{6}-1$`, res.RunID); !ok {
		t.Errorf("run ID %q, want run-<token>-1", res.RunID)
	}
	if other := newService(t, grazelle.StoreConfig{}); other.runPrefix == s.runPrefix {
		t.Errorf("two services drew the same run-ID token %q", s.runPrefix)
	}
	rec, _ := s.ring.Get(res.RunID)
	st := rec.Stages
	if st.Admission <= 0 || st.Acquire <= 0 || st.Run <= 0 || st.Encode <= 0 || st.Post != 0 {
		t.Errorf("stages not all stamped: %+v", st)
	}
	if sum := st.Admission + st.Acquire + st.Run + st.Encode; sum != rec.Wall {
		t.Errorf("stages sum to %v, wall is %v", sum, rec.Wall)
	}
}
