package main

import (
	"fmt"
	"math"
)

// metricDecl declares one metric: BENCHMARK.json is generated from these
// tables (go run ./bench -manifest) and bench_test.go holds the two equal.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// bound is the regression bound of every end-to-end metric, as a share of
// the parent's median. ISSUE 11 asked for 10 %; ten runs of the same code on
// the shared 2-core box spread up to 16 % after calibration (51 % before) on
// the noisiest workload (bench/README.md has the table), so all three get the
// widest the contract allows.
const bound = 0.25

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; README.md says what "one operation" is on each workload and
// what calibrated milliseconds are.
var endToEnd = []metricDecl{
	{"op_ms_p50_cal", "ms", "lower", bound},
	{"throughput_ops_cal", "1/s", "higher", bound},
	{"setup_s", "s", "lower", bound},
}

func lower(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: "higher"}
}

// kernelPairs are the (app, graph) kernels whose iteration counts the traced
// pass reports: ".mesh" is the road-mesh graph of kernel-frontier, no suffix
// the workload's R-MAT graph.
var kernelPairs = []string{"pr", "cc", "bfs", "cc.mesh", "bfs.mesh"}

// perLayer is measured by the traced pass, one layer (module) per prefix. A
// workload reports 0 for a layer its operations never cross. README.md lists
// how each is measured and which end-to-end metric it should move.
var perLayer = func() []metricDecl {
	m := []metricDecl{
		lower("gen.generate_ms", "ms"),
		lower("gen.generate_ms.mesh", "ms"),

		lower("graph.apply_ops_ms.b256", "ms"),
		lower("graph.write_file_ms", "ms"),
		lower("graph.read_file_ms", "ms"),
		lower("graph.snapshot_bytes", "bytes"),

		lower("csr.from_graph_ms", "ms"),

		lower("vsparse.from_csr_ms", "ms"),
		lower("vsparse.bytes_per_edge", "bytes/edge"),
		lower("vsparse.bytes_per_edge.mesh", "bytes/edge"),
		higher("vsparse.packing_efficiency", "ratio"),
		higher("vsparse.packing_efficiency.mesh", "ratio"),

		lower("core.build_graph_ms", "ms"),
		lower("core.build_graph_ms.mesh", "ms"),
		lower("core.run_ms.pr", "ms"),
		lower("core.run_ms.cc", "ms"),
		lower("core.run_ms.bfs", "ms"),
		lower("core.run_ms.ppr", "ms"),
		lower("core.run_ms.cc.mesh", "ms"),
		lower("core.run_ms.bfs.mesh", "ms"),
		lower("core.ns_per_edge.pr", "ns/edge"),
		higher("core.edge_share.pr", "ratio"),
		lower("core.vertex_share.pr", "ratio"),
		higher("core.edge_share.cc.mesh", "ratio"),
		lower("core.vertex_share.cc.mesh", "ratio"),
	}
	for _, count := range []string{"iterations", "pull_iterations", "push_iterations", "sparse_iterations"} {
		for _, pair := range kernelPairs {
			m = append(m, lower("core."+count+"."+pair, "count"))
		}
	}
	return append(m,
		higher("core.speedup_vs_seq.pr", "ratio"),
		higher("core.scaling_wN_over_w1.pr", "ratio"),
		lower("core.seeded_run_ms.cc.b16", "ms"),

		lower("sched.dynamic_for_ns_per_chunk", "ns"),
		lower("sched.admit_ns", "ns"),

		lower("coord.partitioned_over_local.pr", "ratio"),
		lower("coord.partitioned_over_local.cc", "ratio"),

		lower("apps.summary_us.pr", "us"),
		lower("apps.summary_us.cc", "us"),
		lower("apps.summary_us.bfs", "us"),
		lower("apps.values_encode_ms", "ms"),
		lower("apps.values_bytes", "bytes"),

		lower("qcache.do_hit_ns", "ns"),
		lower("qcache.do_miss_overhead_ns", "ns"),
		higher("qcache.hit_ratio", "ratio"),
		higher("qcache.coalesced", "count"),
		lower("qcache.evictions", "count"),
		higher("qcache.seeds_used", "count"),

		lower("store.add_ms", "ms"),
		lower("store.acquire_hot_ns", "ns"),
		lower("store.acquire_materialize_ms", "ms"),
		lower("store.apply_edges_ms.b1", "ms"),
		lower("store.apply_edges_ms.b16", "ms"),
		lower("store.apply_edges_ms.b256", "ms"),
		lower("store.fsyncs_per_batch", "count"),
		lower("store.wal_bytes_per_op", "bytes"),
		lower("store.compact_ms", "ms"),
		lower("store.recover_ms.b64", "ms"),
		lower("store.delta_between_us", "us"),

		lower("cluster.routed_over_local.pr", "ratio"),
		lower("cluster.routed_over_local.cc", "ratio"),
		lower("cluster.routed_over_local.bfs", "ratio"),
		lower("cluster.exchange_rounds_per_run", "count"),
		lower("cluster.exchange_bytes_per_run", "bytes"),
		lower("cluster.failovers", "count"),

		lower("serve.healthz_us_p50", "us"),
		lower("serve.http_write_us_p50", "us"),
		lower("serve.http_wait_ms_p50", "ms"),
		lower("serve.http_read_us_p50", "us"),
		lower("serve.overhead_ms.miss", "ms"),
		lower("serve.fresh_minus_elapsed_ms", "ms"),
		lower("serve.hit_ms_p50", "ms"),
		lower("serve.hit_ms_p99", "ms"),
		lower("serve.miss_ms_p50", "ms"),
		lower("serve.miss_ms_p95", "ms"),
		lower("serve.values_hit_ms_p50", "ms"),
		lower("serve.values_miss_ms_p50", "ms"),
		lower("serve.write_ack_ms_p50", "ms"),
		lower("serve.fresh_query_ms_p50", "ms"),
		lower("serve.recompute_ms_p50", "ms"),
		lower("serve.cycle_ms_p50", "ms"),
		lower("serve.compact_ms_p50", "ms"),
		lower("serve.routed_ms_p50", "ms"),
		lower("serve.routed_ms_p95", "ms"),
		higher("serve.incremental_share", "ratio"),
		lower("serve.cpu_s", "s"),
		lower("serve.cpu_s.workers", "s"),
		lower("serve.peak_rss_mb", "MB"),
		lower("serve.peak_rss_mb.workers", "MB"),

		lower("bench.trace_overhead_ratio", "ratio"),
		higher("bench.samples", "count"),
		lower("bench.generator_cpu_share", "ratio"),
		lower("bench.failed_share", "ratio"),
	)
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sink collects one pass's metrics and refuses names that were not declared
// or are reported twice, so a typo cannot silently drop a number.
type sink struct {
	decls  map[string]metricDecl
	values map[string]metricValue
	errs   []error
	// notes lists metrics that had no samples in this pass (a request class
	// the seeded sequence never produced); they are reported as 0.
	notes []string
}

func newSink(decls []metricDecl) *sink {
	s := &sink{decls: map[string]metricDecl{}, values: map[string]metricValue{}}
	for _, d := range decls {
		s.decls[d.Name] = d
	}
	return s
}

func (s *sink) set(name string, v float64) {
	d, ok := s.decls[name]
	switch {
	case !ok:
		s.errs = append(s.errs, fmt.Errorf("metric %q is not declared", name))
	case math.IsInf(v, 0):
		s.errs = append(s.errs, fmt.Errorf("metric %q is infinite", name))
	default:
		if math.IsNaN(v) {
			s.notes = append(s.notes, fmt.Sprintf("metric %s had no samples; reported as 0", name))
			v = 0
		}
		if _, dup := s.values[name]; dup {
			s.errs = append(s.errs, fmt.Errorf("metric %q reported twice", name))
		}
		s.values[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// zeroFill reports 0 for every declared metric the pass did not set: the
// workload's operations do not cross that layer.
func (s *sink) zeroFill() {
	for name, d := range s.decls {
		if _, ok := s.values[name]; !ok {
			s.values[name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
}
