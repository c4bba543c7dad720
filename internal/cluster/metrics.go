package cluster

import "cellgan/internal/telemetry"

// Metrics are the master's runtime counters. Built over the shared
// telemetry registry; NewMetrics(nil) returns a fully usable no-op set
// (nil instruments are no-ops), so the master code threads metrics
// through unconditionally.
type Metrics struct {
	// StateUpdates counts state uploads received from slaves.
	StateUpdates *telemetry.Counter
	// Evictions counts slaves removed for missing MaxStrikes uploads.
	Evictions *telemetry.Counter
	// Redispatches counts cells reassigned from an evicted slave to a
	// survivor.
	Redispatches *telemetry.Counter
	// SendRetries stays zero: a failed send is not retried, since the
	// transport has spent its reconnect budget on it (mpi.ErrPeerDead).
	// bench/micro.go still reports it.
	SendRetries *telemetry.Counter
	// Heartbeats counts status polls answered by slaves.
	Heartbeats *telemetry.Counter
	// LiveSlaves tracks the current number of live slaves.
	LiveSlaves *telemetry.Gauge
	// Joins counts slaves that joined a running job (async mode).
	Joins *telemetry.Counter
	// Rebalances counts cells moved to a joiner (async mode).
	Rebalances *telemetry.Counter
}

// NewMetrics registers the master metrics on reg; a nil registry yields
// a no-op set.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		StateUpdates: reg.Counter("cluster_state_updates_total", "State uploads merged into the master grid view."),
		Evictions:    reg.Counter("cluster_evictions_total", "Slaves evicted for missed uploads."),
		Redispatches: reg.Counter("cluster_redispatches_total", "Cells reassigned from evicted slaves to survivors."),
		SendRetries:  reg.Counter("cluster_send_retries_total", "Master messages re-sent after a failed attempt."),
		Heartbeats:   reg.Counter("cluster_heartbeats_total", "Status polls answered by slaves."),
		LiveSlaves:   reg.Gauge("cluster_live_slaves", "Slaves currently participating in the job."),
		Joins:        reg.Counter("cluster_joins_total", "Slaves that joined a running job mid-run."),
		Rebalances:   reg.Counter("cluster_rebalances_total", "Cells moved to a joiner during rebalancing."),
	}
}

// interrupted reports whether ch (possibly nil) has been closed.
func interrupted(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
