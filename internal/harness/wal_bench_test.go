package harness

import (
	"testing"

	"repro/internal/gen"
)

func TestWALBenchRows(t *testing.T) {
	cfg := Config{Quick: true, Datasets: []gen.Dataset{gen.AllDatasets[0]}}
	rows, err := WALBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if r.Batches != 32 || r.OpsPerBatch != 64 {
		t.Errorf("quick sizing = %d batches × %d ops, want 32 × 64", r.Batches, r.OpsPerBatch)
	}
	if r.AppendNS <= 0 || r.AppendsPerSec <= 0 || r.OpsPerSec <= 0 {
		t.Errorf("non-positive append timings: %+v", r)
	}
	if r.RecoveryNS <= 0 || r.RecoveryPerBatch <= 0 {
		t.Errorf("non-positive recovery timings: %+v", r)
	}
	if r.OpenNS <= 0 || r.MaterializeRebuildNS <= 0 || r.OpenNS+r.MaterializeRebuildNS != r.RecoveryNS {
		t.Errorf("recovery does not split into open + materialize: %+v", r)
	}
	if r.MaterializeLiveNS <= 0 || (r.MaterializeLivePath != "patch" && r.MaterializeLivePath != "rebuild") {
		t.Errorf("live materialization not measured: %+v", r)
	}
	if r.RecoveredVertices <= 0 {
		t.Errorf("recovered view has %d vertices", r.RecoveredVertices)
	}
}
