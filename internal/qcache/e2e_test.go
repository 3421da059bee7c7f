package qcache_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	grazelle "repro"
	"repro/internal/qcache"
)

// Facade-level cache correctness: a cache hit serves a payload byte-identical
// to a fresh recompute across PR, CC, and BFS (engines are bit-deterministic,
// so marshaled per-vertex values must match exactly), and an Add-replace of
// the graph makes the old version's entries unreachable. Run under -race in
// the CI race shard.

// runApp executes app on a fresh handle through the generic registry path
// and returns the full per-vertex result serialized to JSON — only
// deterministic fields, so byte comparison is meaningful.
func runApp(t *testing.T, st *grazelle.Store, graph, app string) qcache.Result {
	t.Helper()
	h, err := st.Acquire(graph)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	res, err := h.Engine().Run(context.Background(), app, grazelle.Params{Iters: 12})
	if err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"values": res.Values()}
	for _, st := range res.Summary() {
		body[st.Key] = st.Value
	}
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return qcache.Result{Payload: payload, Version: h.Version()}
}

func TestCacheHitBitIdenticalAcrossApps(t *testing.T) {
	st, err := grazelle.OpenStore(grazelle.StoreConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := qcache.New(qcache.Config{Budget: 64 << 20})
	st.OnRetireReason(func(name string, version uint64, _ grazelle.RetireReason) {
		cache.RetireVersion(name, version, false)
	})

	g, err := grazelle.GenerateDataset("C", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add("g", g); err != nil {
		t.Fatal(err)
	}
	v1, err := st.Version("g")
	if err != nil {
		t.Fatal(err)
	}

	keys := map[string]qcache.Key{}
	for _, app := range []string{"pr", "cc", "bfs"} {
		k := qcache.Key{Graph: "g", Version: v1, App: app,
			Params: "iters=12&k=0&root=0&values=true"}
		keys[app] = k

		first, outcome, err := cache.Do(context.Background(), k,
			func(context.Context) (qcache.Result, error) { return runApp(t, st, "g", app), nil })
		if err != nil || outcome != qcache.OutcomeMiss {
			t.Fatalf("%s: first Do outcome %v err %v", app, outcome, err)
		}

		// The hit must serve the stored payload...
		hit, outcome, err := cache.Do(context.Background(), k,
			func(context.Context) (qcache.Result, error) {
				t.Errorf("%s: compute ran on a warm key", app)
				return qcache.Result{}, nil
			})
		if err != nil || outcome != qcache.OutcomeHit {
			t.Fatalf("%s: second Do outcome %v err %v", app, outcome, err)
		}
		if !bytes.Equal(hit.Payload, first.Payload) {
			t.Fatalf("%s: hit payload diverges from original", app)
		}
		// ...and that payload must be byte-identical to a fresh recompute:
		// the whole point of version-addressed caching over deterministic
		// engines.
		fresh := runApp(t, st, "g", app)
		if !bytes.Equal(hit.Payload, fresh.Payload) {
			t.Fatalf("%s: cached payload is not bit-identical to a fresh recompute (%d vs %d bytes)",
				app, len(hit.Payload), len(fresh.Payload))
		}
	}

	// Replacing the graph retires v1: every old entry becomes unreachable
	// and the new version computes fresh results.
	g2, err := grazelle.GenerateDataset("C", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add("g", g2); err != nil {
		t.Fatal(err)
	}
	v2, err := st.Version("g")
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Fatalf("replace version %d not past %d", v2, v1)
	}
	for app, k := range keys {
		if _, ok := cache.Get(k); ok {
			t.Errorf("%s: stale entry for retired version %d still reachable", app, v1)
		}
	}
	st2 := cache.Stats()
	if st2.Invalidated == 0 {
		t.Error("no entries recorded as invalidated after Add-replace")
	}

	// A query against the new version is a miss and computes on v2's graph.
	k := qcache.Key{Graph: "g", Version: v2, App: "pr",
		Params: "iters=12&k=0&root=0&values=true"}
	res, outcome, err := cache.Do(context.Background(), k,
		func(context.Context) (qcache.Result, error) { return runApp(t, st, "g", "pr"), nil })
	if err != nil || outcome != qcache.OutcomeMiss || len(res.Payload) == 0 {
		t.Fatalf("post-replace Do: outcome %v err %v", outcome, err)
	}
}
