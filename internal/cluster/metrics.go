package cluster

import "repro/internal/obs"

// routerMetrics holds the grazelle_cluster_* families. They live in the
// router's store registry so /metrics and /v1/cluster read the same cells.
type routerMetrics struct {
	runs      *obs.Counter
	failures  *obs.Counter
	failovers *obs.Counter
	// routed counts the runs each worker answered, so the hash spread over
	// the roster is visible.
	routed map[string]*obs.Counter
}

func newRouterMetrics(reg *obs.Registry, workers []string) *routerMetrics {
	m := &routerMetrics{
		runs: reg.Counter("grazelle_cluster_runs_total",
			"Queries executed through the cluster tier.", nil),
		failures: reg.Counter("grazelle_cluster_run_failures_total",
			"Cluster queries that failed after any failover.", nil),
		failovers: reg.Counter("grazelle_cluster_failovers_total",
			"Cluster runs retried on another replica after the chosen worker failed.", nil),
		routed: make(map[string]*obs.Counter, len(workers)),
	}
	for _, w := range workers {
		m.routed[w] = reg.Counter("grazelle_cluster_routed_runs_total",
			"Routed runs answered, by worker.", obs.Labels{"worker": w})
	}
	return m
}
