package store

import (
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file wires the store's state into an obs.Registry. The store owns the
// registry because it owns every subsystem worth measuring — the graph
// registry, the shared scheduler pool and the admission controller — and the
// serving layer only adds HTTP- and run-level families on top. Gauges read
// live store state at scrape time (closures under s.mu); monotonic counts
// read the same cells Stats() reports, so the registry and /v1/stats can
// never disagree.

// Metrics returns the store's metric registry, for serving at /metrics and
// for layering additional families above the store.
func (s *Store) Metrics() *obs.Registry { return s.reg }

// registerMetrics populates the registry. Called once from Open, after the
// pool and admission controller exist.
func (s *Store) registerMetrics() {
	r := obs.NewRegistry()
	s.reg = r

	r.GaugeFunc("grazelle_store_graphs", "Registered graphs.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.graphs))
	})
	r.GaugeFunc("grazelle_store_graphs_resident", "Registered graphs currently loaded in memory.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, e := range s.graphs {
			if e.runner != nil {
				n++
			}
		}
		return float64(n)
	})
	r.GaugeFunc("grazelle_store_bytes_resident", "Resident bytes of loaded graphs.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.resident)
	})
	r.CounterFunc("grazelle_store_evictions_total", "Graphs evicted to stay under the memory budget.", nil, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.evictions
	})
	r.CounterFunc("grazelle_store_rehydrations_total", "Successful snapshot rehydrations.", nil, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rehydrations
	})
	r.CounterFunc("grazelle_store_rehydrate_retries_total", "Transient snapshot-load retries.", nil, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rehydrateRetries
	})
	r.CounterFunc("grazelle_store_snapshots_quarantined_total", "Snapshots moved aside as corrupt.", nil, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.quarantined
	})
	r.CounterFunc("grazelle_runs_total", "Completed engine runs.", nil, func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.runs
	})

	// Streaming-mutation families: counters read the same atomic cells
	// Stats().WAL reports; gauges scan the per-graph delta-log mirrors.
	r.CounterFunc("grazelle_wal_appends_total", "Acknowledged (durable) mutation batches.", nil, s.walc.appends.Load)
	r.CounterFunc("grazelle_wal_append_errors_total", "Rejected or rolled-back mutation batches.", nil, s.walc.appendErrors.Load)
	r.CounterFunc("grazelle_wal_fsyncs_total", "Delta-log group commits.", nil, s.walc.fsyncs.Load)
	r.CounterFunc("grazelle_wal_fsync_errors_total", "Failed delta-log syncs (each rolls back its group).", nil, s.walc.fsyncErrors.Load)
	r.CounterFunc("grazelle_wal_replayed_batches_total", "Mutation batches replayed from disk at open.", nil, s.walc.replayed.Load)
	r.CounterFunc("grazelle_wal_torn_tails_total", "Torn delta-log tails truncated at open.", nil, s.walc.tornTails.Load)
	r.CounterFunc("grazelle_wal_quarantined_segments_total", "Corrupt delta-log segments moved aside.", nil, s.walc.quarantined.Load)
	r.CounterFunc("grazelle_wal_rotations_total", "Delta-log rewrites (compaction and healing).", nil, s.walc.rotations.Load)
	r.CounterFunc("grazelle_wal_healed_total", "Wedged delta logs recovered by rewrite.", nil, s.walc.healed.Load)
	r.GaugeFunc("grazelle_wal_wedged", "Graphs whose delta log is refusing writes pending heal.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, e := range s.graphs {
			if e.delta != nil && e.delta.wedgedFlag.Load() != 0 {
				n++
			}
		}
		return float64(n)
	})
	r.GaugeFunc("grazelle_wal_tail_bytes", "Acknowledged un-compacted overlay bytes across graphs.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var b int64
		for _, e := range s.graphs {
			if e.delta != nil {
				b += e.delta.tailBytes.Load()
			}
		}
		return float64(b)
	})
	r.GaugeFunc("grazelle_wal_tail_batches", "Acknowledged un-compacted mutation batches across graphs.", nil, func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, e := range s.graphs {
			if e.delta != nil {
				n += e.delta.tailBatches.Load()
			}
		}
		return float64(n)
	})
	const materializeHelp = "Seconds Acquire spent producing a version's graph and engine layouts, by arm: patch (spliced from the predecessor), rebuild (full preprocessing), shared (predecessor reused)."
	hist := func(path string) *obs.Histogram {
		return r.Histogram("grazelle_store_materialize_seconds", materializeHelp, obs.Labels{"path": path}, obs.DefTimeBuckets)
	}
	s.materializePatch, s.materializeRebuild, s.materializeShared = hist("patch"), hist("rebuild"), hist("shared")
	r.CounterFunc("grazelle_store_compactions_total", "Mutation overlays folded into fresh snapshots.", nil, s.compactions.Load)
	r.CounterFunc("grazelle_store_compact_errors_total", "Failed compaction attempts (retried with backoff).", nil, s.compactErrors.Load)

	r.GaugeFunc("grazelle_admission_inflight", "Admitted, unreleased queries.", nil, func() float64 {
		return float64(s.adm.InFlight())
	})
	r.GaugeFunc("grazelle_admission_queued", "Queries waiting for admission.", nil, func() float64 {
		return float64(s.adm.Queued())
	})
	r.CounterFunc("grazelle_admission_admitted_total", "Queries admitted.", nil, s.adm.Admitted)
	r.CounterFunc("grazelle_admission_rejected_total", "Queries rejected on overload.", nil, s.adm.Rejected)

	r.CounterFunc("grazelle_sched_pool_panics_total", "Job-body panics the worker pool contained.", nil, s.pool.Panics)
	s.pool.SetMetrics(&sched.PoolMetrics{
		JobWait: r.Histogram("grazelle_sched_job_wait_seconds", "Seconds a submitter blocked on the active-job cap.", nil, obs.DefTimeBuckets),
		JobExec: r.Histogram("grazelle_sched_job_exec_seconds", "Seconds from job publication to barrier completion.", nil, obs.DefTimeBuckets),
	})
}
