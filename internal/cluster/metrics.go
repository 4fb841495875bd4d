package cluster

import (
	"net/http"
	"time"

	"popkit/internal/obs"
	"popkit/internal/qos"
	"popkit/internal/serve"
	"popkit/internal/store"
)

// Metrics is the coordinator's series set: the front's job, sweep and
// latency series under popkit_cluster_* names, plus the cluster's own
// dispatch and worker-health series, on one obs.Registry that feeds both
// the JSON document (GET /metrics) and the Prometheus exposition (GET
// /metrics?format=prom).
type Metrics struct {
	*serve.FrontMetrics

	// JobsRejectedNoWorkers counts jobs turned away with 503 because no
	// registered worker was live.
	JobsRejectedNoWorkers *obs.Counter

	// ShardsDispatched counts every shard handed to a worker, re-dispatch
	// attempts included; ShardsRedispatched counts only the dispatches that
	// re-route a shard after a worker failed it mid-flight.
	ShardsDispatched   *obs.Counter
	ShardsRedispatched *obs.Counter
	// RecordsMerged counts replica records merged into client streams in
	// replica order.
	RecordsMerged *obs.Counter

	// Workers/WorkersLive are the registered and currently-healthy worker
	// gauges; WorkersLost counts live→down transitions (probe failures and
	// dispatch errors); Probes/ProbeFailures tally the health-check traffic.
	Workers       *obs.GaugeInt
	WorkersLive   *obs.GaugeInt
	WorkersLost   *obs.Counter
	Probes        *obs.Counter
	ProbeFailures *obs.Counter
}

// newMetrics extends the front's series with the cluster's own.
func newMetrics(f *serve.FrontMetrics) *Metrics {
	reg := f.Registry()
	return &Metrics{
		FrontMetrics:          f,
		JobsRejectedNoWorkers: reg.Counter("popkit_cluster_jobs_rejected_total", "jobs rejected at admission, by reason", obs.L("reason", "no_workers")),
		ShardsDispatched:      reg.Counter("popkit_cluster_shards_dispatched_total", "shard dispatches to workers, re-dispatches included"),
		ShardsRedispatched:    reg.Counter("popkit_cluster_shards_redispatched_total", "shards re-routed after a worker failure"),
		RecordsMerged:         reg.Counter("popkit_cluster_records_merged_total", "replica records merged in replica order"),
		Workers:               reg.Gauge("popkit_cluster_workers", "registered workers"),
		WorkersLive:           reg.Gauge("popkit_cluster_workers_live", "workers currently passing health checks"),
		WorkersLost:           reg.Counter("popkit_cluster_workers_lost_total", "live→down worker transitions"),
		Probes:                reg.Counter("popkit_cluster_probes_total", "worker health probes sent"),
		ProbeFailures:         reg.Counter("popkit_cluster_probe_failures_total", "worker health probes that failed"),
	}
}

// WorkerShardDuration returns (registering on first use) the per-worker
// shard-attempt wall-clock histogram — the cluster's per-worker latency
// series.
func (m *Metrics) WorkerShardDuration(workerURL string) *obs.Histogram {
	return m.Registry().Histogram("popkit_cluster_shard_duration_seconds",
		"shard attempt wall-clock time by worker", obs.L("worker", workerURL))
}

// MetricsSnapshot is the coordinator's /metrics JSON document.
type MetricsSnapshot struct {
	JobsAccepted          int64   `json:"jobs_accepted"`
	JobsCompleted         int64   `json:"jobs_completed"`
	JobsFailed            int64   `json:"jobs_failed"`
	JobsCancelled         int64   `json:"jobs_cancelled"`
	JobsRejectedInvalid   int64   `json:"jobs_rejected_invalid"`
	JobsRejectedNoWorkers int64   `json:"jobs_rejected_no_workers"`
	JobsResumed           int64   `json:"jobs_resumed"`
	Sweeps                int64   `json:"sweeps"`
	SweepPointsHit        int64   `json:"sweep_points_hit"`
	SweepPointsMiss       int64   `json:"sweep_points_miss"`
	SweepPointsInflight   int64   `json:"sweep_points_inflight"`
	SweepPointsError      int64   `json:"sweep_points_error"`
	ShardsDispatched      int64   `json:"shards_dispatched"`
	ShardsRedispatched    int64   `json:"shards_redispatched"`
	RecordsMerged         int64   `json:"records_merged"`
	Workers               int64   `json:"workers"`
	WorkersLive           int64   `json:"workers_live"`
	WorkersLost           int64   `json:"workers_lost"`
	Probes                int64   `json:"probes"`
	ProbeFailures         int64   `json:"probe_failures"`
	UptimeSec             float64 `json:"uptime_sec"`
	// Latency maps endpoint name to its request-latency summary.
	Latency map[string]obs.HistogramSnapshot `json:"latency"`
	// Store summarizes the coordinator's result cache (absent when the
	// store is disabled).
	Store *store.Snapshot `json:"store,omitempty"`
	// QoS summarizes coordinator-side admission: per-tenant admit/reject
	// tallies and the cost model's per-tier EWMA corrections.
	QoS *qos.Snapshot `json:"qos,omitempty"`
}

// Snapshot renders the counters; started anchors the uptime.
func (m *Metrics) Snapshot(started time.Time) MetricsSnapshot {
	return MetricsSnapshot{
		JobsAccepted:          int64(m.JobsAccepted.Load()),
		JobsCompleted:         int64(m.JobsCompleted.Load()),
		JobsFailed:            int64(m.JobsFailed.Load()),
		JobsCancelled:         int64(m.JobsCancelled.Load()),
		JobsRejectedInvalid:   int64(m.JobsRejectedInvalid.Load()),
		JobsRejectedNoWorkers: int64(m.JobsRejectedNoWorkers.Load()),
		JobsResumed:           int64(m.JobsResumed.Load()),
		Sweeps:                int64(m.Sweeps.Load()),
		SweepPointsHit:        int64(m.SweepPointsHit.Load()),
		SweepPointsMiss:       int64(m.SweepPointsMiss.Load()),
		SweepPointsInflight:   int64(m.SweepPointsInfl.Load()),
		SweepPointsError:      int64(m.SweepPointsError.Load()),
		ShardsDispatched:      int64(m.ShardsDispatched.Load()),
		ShardsRedispatched:    int64(m.ShardsRedispatched.Load()),
		RecordsMerged:         int64(m.RecordsMerged.Load()),
		Workers:               m.Workers.Load(),
		WorkersLive:           m.WorkersLive.Load(),
		WorkersLost:           int64(m.WorkersLost.Load()),
		Probes:                int64(m.Probes.Load()),
		ProbeFailures:         int64(m.ProbeFailures.Load()),
		UptimeSec:             time.Since(started).Seconds(),
		Latency:               m.LatencySnapshot(),
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.metrics.WriteProm(w, c.started)
		return
	}
	snap := c.metrics.Snapshot(c.started)
	snap.Store, snap.QoS = c.MetricsSections()
	serve.WriteJSON(w, snap)
}
