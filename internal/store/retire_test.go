package store

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// retireRecorder collects OnRetireReason notifications; safe for concurrent use,
// per the hook contract.
type retireRecorder struct {
	mu     sync.Mutex
	events []struct {
		name    string
		version uint64
	}
}

func (r *retireRecorder) record(name string, version uint64, _ RetireReason) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, struct {
		name    string
		version uint64
	}{name, version})
}

func (r *retireRecorder) snapshot() []struct {
	name    string
	version uint64
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(r.events[:0:0], r.events...)
}

// TestVersionRetirementHook: Add assigns monotonic versions, Add-replace and
// Delete fire the retirement hook with the retired (name, version), and a
// deleted name re-added later gets a fresh version (never reused).
func TestVersionRetirementHook(t *testing.T) {
	s, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &retireRecorder{}
	s.OnRetireReason(rec.record)

	g := gen.RMAT(7, 500, gen.DefaultRMAT, 1)
	if err := s.Add("a", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	v1, err := s.Version("a")
	if err != nil || v1 == 0 {
		t.Fatalf("Version(a) = %d, %v; want nonzero version", v1, err)
	}
	if ev := rec.snapshot(); len(ev) != 0 {
		t.Fatalf("hook fired on a fresh Add: %v", ev)
	}

	// A handle pins the version it acquired.
	h, err := s.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.Version() != v1 {
		t.Errorf("handle version %d, want %d", h.Version(), v1)
	}

	// Replace: the old version retires, the new one is strictly larger.
	if err := s.Add("a", core.BuildGraph(gen.RMAT(7, 500, gen.DefaultRMAT, 2))); err != nil {
		t.Fatal(err)
	}
	v2, _ := s.Version("a")
	if v2 <= v1 {
		t.Errorf("replace version %d, want > %d", v2, v1)
	}
	ev := rec.snapshot()
	if len(ev) != 1 || ev[0].name != "a" || ev[0].version != v1 {
		t.Fatalf("after replace hook events = %v, want [{a %d}]", ev, v1)
	}
	// The pinned handle still reports the retired version it started on.
	if h.Version() != v1 {
		t.Errorf("pinned handle version %d after replace, want %d", h.Version(), v1)
	}
	h.Close()

	// Delete retires the current version; Version then reports not-found.
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	ev = rec.snapshot()
	if len(ev) != 2 || ev[1].name != "a" || ev[1].version != v2 {
		t.Fatalf("after delete hook events = %v, want second {a %d}", ev, v2)
	}
	if _, err := s.Version("a"); err == nil {
		t.Error("Version after delete did not fail")
	}

	// Re-adding the name mints a fresh version — versions are never reused.
	if err := s.Add("a", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	v3, _ := s.Version("a")
	if v3 <= v2 {
		t.Errorf("re-added version %d, want > %d", v3, v2)
	}
}

// TestEvictionKeepsVersion: LRU eviction to cold and the subsequent
// rehydration do not retire the version — no hook fires and Version is
// stable, so cached results keyed by (name, version) stay valid across the
// evict/rehydrate cycle without ever touching disk on their behalf.
func TestEvictionKeepsVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := &retireRecorder{}
	s.OnRetireReason(rec.record)

	if err := s.Add("e", core.BuildGraph(gen.RMAT(7, 500, gen.DefaultRMAT, 3))); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Version("e")

	// Adding a second graph blows the 1-byte budget: the idle "e" is evicted.
	if err := s.Add("f", core.BuildGraph(gen.RMAT(7, 500, gen.DefaultRMAT, 4))); err != nil {
		t.Fatal(err)
	}
	var cold bool
	for _, info := range s.List() {
		if info.Name == "e" {
			cold = !info.Resident
			if info.Version != v {
				t.Errorf("List version %d after eviction, want %d", info.Version, v)
			}
		}
	}
	if !cold {
		t.Fatal("graph e still resident under a 1-byte budget")
	}
	if ev := rec.snapshot(); len(ev) != 0 {
		t.Fatalf("eviction fired the retirement hook: %v", ev)
	}
	if got, _ := s.Version("e"); got != v {
		t.Errorf("Version after eviction = %d, want %d", got, v)
	}

	// Rehydration keeps the version too.
	h, err := s.Acquire("e")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Version() != v {
		t.Errorf("rehydrated handle version %d, want %d", h.Version(), v)
	}
}
