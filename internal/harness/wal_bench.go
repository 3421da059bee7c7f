package harness

import (
	"fmt"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// WALBenchResult is one dataset's streaming-mutation throughput row: how
// fast ApplyEdges acknowledges durable batches against a disk-backed store,
// and how long reopening the store takes to replay that WAL tail back into
// a servable view (store.Open plus the first materializing Acquire).
type WALBenchResult struct {
	Dataset     string `json:"dataset"`
	Batches     int    `json:"batches"`
	OpsPerBatch int    `json:"ops_per_batch"`
	// AppendNS is the total wall time of the append loop; AppendsPerSec is
	// Batches normalized by it — each append is WAL-framed, group-commit
	// fsynced, and published under a new version before it counts.
	AppendNS      int64   `json:"append_ns"`
	AppendsPerSec float64 `json:"appends_per_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	// RecoveryNS is the crash-recovery path: reopen the store over the WAL
	// tail and materialize the merged view.
	RecoveryNS        int64   `json:"recovery_ns"`
	RecoveryPerBatch  float64 `json:"recovery_per_batch_ns"`
	RecoveredVertices int     `json:"recovered_vertices"`
	// OpenNS is the part of RecoveryNS spent in store.Open — reading and
	// replaying the log. MaterializeRebuildNS is the rest: the first Acquire,
	// which loads the snapshot, merges the tail and runs the full
	// preprocessing — most of a recovery, and none of it the WAL's doing.
	OpenNS               int64 `json:"open_ns"`
	MaterializeRebuildNS int64 `json:"materialize_rebuild_ns"`
	// MaterializeLiveNS is the same overlay's first read on the store that
	// wrote it, where the base version's layouts are still resident;
	// MaterializeLivePath is the arm that served it ("patch" unless the tail
	// touches most groups).
	MaterializeLiveNS   int64  `json:"materialize_live_ns"`
	MaterializeLivePath string `json:"materialize_live_path"`
}

// walBenchOps builds one deterministic mutation batch: half re-weights of
// existing edges, half fresh inserts, the shape a streaming feed produces.
func walBenchOps(g *graph.Graph, round, n int) []graph.EdgeOp {
	ops := make([]graph.EdgeOp, 0, n)
	v := uint32(g.NumVertices)
	for i := 0; len(ops) < n; i++ {
		if i%2 == 0 {
			e := g.Edges[(i*131+round*17)%len(g.Edges)]
			ops = append(ops, graph.EdgeOp{Src: e.Src, Dst: e.Dst, Weight: float32(round + 1)})
		} else {
			ops = append(ops, graph.EdgeOp{
				Src: uint32(i*37+round*101) % v,
				Dst: uint32(i*89+round*53+1) % v,
			})
		}
	}
	return ops
}

// WALBench measures streaming-mutation write throughput and recovery-replay
// time over the config's datasets, using the same store composition serve
// mode wires up (WAL-durable ApplyEdges against a data directory).
func WALBench(cfg Config) ([]WALBenchResult, error) {
	cfg = cfg.withDefaults()
	batches, opsPer := 256, 64
	if cfg.Quick {
		batches = 32
	}

	var rows []WALBenchResult
	for _, d := range cfg.Datasets {
		row, err := walBenchRow(cfg, d, batches, opsPer)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func walBenchRow(cfg Config, d gen.Dataset, batches, opsPer int) (WALBenchResult, error) {
	dir, err := os.MkdirTemp("", "grazelle-walbench")
	if err != nil {
		return WALBenchResult{}, err
	}
	defer os.RemoveAll(dir)

	name := string(d.Abbrev())
	g := cfg.DatasetGraph(d)
	st, err := store.Open(store.Config{DataDir: dir, Workers: cfg.Workers})
	if err != nil {
		return WALBenchResult{}, err
	}
	if err := st.Add(name, g); err != nil {
		st.Close()
		return WALBenchResult{}, err
	}

	start := time.Now()
	for round := 0; round < batches; round++ {
		if _, _, err := st.ApplyEdges(name, walBenchOps(g, round, opsPer)); err != nil {
			st.Close()
			return WALBenchResult{}, fmt.Errorf("wal bench %s batch %d: %w", name, round, err)
		}
	}
	appendWall := time.Since(start)
	start = time.Now()
	live, err := st.Acquire(name)
	if err != nil {
		st.Close()
		return WALBenchResult{}, err
	}
	liveWall := time.Since(start)
	live.Close()
	livePath := "rebuild"
	if st.Stats().Materialize.Patch > 0 {
		livePath = "patch"
	}
	if err := st.Close(); err != nil {
		return WALBenchResult{}, err
	}

	// Recovery: reopen over the WAL tail and materialize the merged view —
	// the wall time a crashed instance pays before serving again.
	start = time.Now()
	st2, err := store.Open(store.Config{DataDir: dir, Workers: cfg.Workers})
	if err != nil {
		return WALBenchResult{}, err
	}
	openWall := time.Since(start)
	h, err := st2.Acquire(name)
	if err != nil {
		st2.Close()
		return WALBenchResult{}, err
	}
	recoveryWall := time.Since(start)
	vertices := h.Source().NumVertices
	h.Close()
	if err := st2.Close(); err != nil {
		return WALBenchResult{}, err
	}

	sec := appendWall.Seconds()
	return WALBenchResult{
		Dataset:           name,
		Batches:           batches,
		OpsPerBatch:       opsPer,
		AppendNS:          appendWall.Nanoseconds(),
		AppendsPerSec:     float64(batches) / sec,
		OpsPerSec:         float64(batches*opsPer) / sec,
		RecoveryNS:        recoveryWall.Nanoseconds(),
		RecoveryPerBatch:  float64(recoveryWall.Nanoseconds()) / float64(batches),
		RecoveredVertices: vertices,

		OpenNS:               openWall.Nanoseconds(),
		MaterializeRebuildNS: (recoveryWall - openWall).Nanoseconds(),
		MaterializeLiveNS:    liveWall.Nanoseconds(),
		MaterializeLivePath:  livePath,
	}, nil
}
