package store

import (
	"context"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// metricFamilies every store registry must expose, whatever the config.
// Serving dashboards key on this catalog staying stable.
var metricFamilies = []string{
	"grazelle_store_graphs",
	"grazelle_store_graphs_resident",
	"grazelle_store_bytes_resident",
	"grazelle_store_evictions_total",
	"grazelle_store_rehydrations_total",
	"grazelle_store_rehydrate_retries_total",
	"grazelle_store_snapshots_quarantined_total",
	"grazelle_store_materialize_seconds",
	"grazelle_runs_total",
	"grazelle_admission_inflight",
	"grazelle_admission_queued",
	"grazelle_admission_admitted_total",
	"grazelle_admission_rejected_total",
	"grazelle_sched_pool_panics_total",
	"grazelle_sched_job_exec_seconds",
}

func scrape(t *testing.T, s *Store) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

// metricValue extracts the sample value of an unlabeled series from
// Prometheus text output.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return rest
		}
	}
	t.Fatalf("series %q not found in scrape:\n%s", name, text)
	return ""
}

// TestMetricsCatalogStable: every family is present, with HELP and TYPE
// lines, whether or not admission control is configured.
func TestMetricsCatalogStable(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{Workers: 2}},
		{"full", Config{Workers: 2, MaxInFlight: 4, MaxQueue: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			text := scrape(t, s)
			for _, fam := range metricFamilies {
				if !strings.Contains(text, "# HELP "+fam+" ") {
					t.Errorf("missing HELP for %s", fam)
				}
				if !strings.Contains(text, "# TYPE "+fam+" ") {
					t.Errorf("missing TYPE for %s", fam)
				}
			}
		})
	}
}

// TestMetricsTrackStoreActivity drives the store through an add, an
// eviction (the 1-byte budget evicts the idle graph right after Add), a
// rehydration, and queries, then checks the registry agrees with Stats()
// on every count they both report, and that both count the two
// materialization arms, patch and rebuild, and nothing else.
func TestMetricsTrackStoreActivity(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{DataDir: dir, Workers: 2, MaxInFlight: 4, MemBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g := gen.RMAT(8, 2000, gen.DefaultRMAT, 21)
	if err := s.Add("g1", core.BuildGraph(g)); err != nil {
		t.Fatal(err)
	}
	// The budget evicted the idle graph at Add; Acquire rehydrates it.
	h, err := s.Acquire("g1")
	if err != nil {
		t.Fatal(err)
	}
	pagerank(t, h)
	pagerank(t, h)
	h.Close()

	release, err := s.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()

	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected at least one eviction; test setup broken")
	}
	if st.Rehydrations == 0 {
		t.Fatal("expected at least one rehydration; test setup broken")
	}
	if st.Materialize.Rebuild == 0 {
		t.Fatal("the rehydration was not counted as a rebuild")
	}
	text := scrape(t, s)
	for name, want := range map[string]int64{
		"grazelle_store_graphs":             int64(st.Graphs),
		"grazelle_store_graphs_resident":    int64(st.Resident),
		"grazelle_store_bytes_resident":     st.BytesResident,
		"grazelle_store_evictions_total":    int64(st.Evictions),
		"grazelle_store_rehydrations_total": int64(st.Rehydrations),
		"grazelle_runs_total":               int64(st.Runs),
		"grazelle_admission_inflight":       int64(st.InFlight),

		`grazelle_store_materialize_seconds_count{path="patch"}`:   int64(st.Materialize.Patch),
		`grazelle_store_materialize_seconds_count{path="rebuild"}`: int64(st.Materialize.Rebuild),
	} {
		if got := metricValue(t, text, name); got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %s, registry disagrees with Stats %d", name, got, want)
		}
	}
	if strings.Count(text, "grazelle_store_materialize_seconds_count{") != 2 {
		t.Error("grazelle_store_materialize_seconds has a series beside patch and rebuild")
	}
	if b, _ := json.Marshal(st.Materialize); !regexp.MustCompile(`^\{"patch":\d+,"rebuild":\d+\}$`).Match(b) {
		t.Errorf("/v1/stats materialize = %s, want the keys patch and rebuild alone", b)
	}
	if got := metricValue(t, text, "grazelle_admission_admitted_total"); got == "0" {
		t.Error("admitted_total still 0 after an explicit Admit")
	}
	// Pool histograms saw the runs' jobs.
	if got := metricValue(t, text, "grazelle_sched_job_exec_seconds_count"); got == "0" {
		t.Error("job exec histogram observed nothing across two PageRank runs")
	}
}
