package cluster

import "fmt"

// UnavailableError reports that a query could not be placed: no healthy,
// synced worker exists (or failover exhausted the roster). The serving layer
// maps it to 503 with Retry-After so clients back off while health checks
// and resync repair the tier.
type UnavailableError struct {
	Reason string
	// Cause is the last per-worker failure when failover ran out of
	// replicas; nil when the roster was empty to begin with.
	Cause error
}

func (e *UnavailableError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: unavailable: %s: %v", e.Reason, e.Cause)
	}
	return "cluster: unavailable: " + e.Reason
}

func (e *UnavailableError) Unwrap() error { return e.Cause }

// PeerError reports the chosen worker's failure to answer a routed run: a
// transport error (Status 0, Err set) or a non-200 /internal/run response
// carrying the worker's typed verdict in Code.
type PeerError struct {
	Worker string
	Status int
	Code   string
	Msg    string
	Err    error
}

func (e *PeerError) Error() string {
	switch {
	case e.Err != nil:
		return fmt.Sprintf("cluster: worker %s: %v", e.Worker, e.Err)
	case e.Code != "":
		return fmt.Sprintf("cluster: worker %s: %d %s: %s", e.Worker, e.Status, e.Code, e.Msg)
	default:
		return fmt.Sprintf("cluster: worker %s: status %d: %s", e.Worker, e.Status, e.Msg)
	}
}

func (e *PeerError) Unwrap() error { return e.Err }
