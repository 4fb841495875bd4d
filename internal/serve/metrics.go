package serve

import (
	"io"
	"time"

	"popkit/internal/obs"
	"popkit/internal/qos"
	"popkit/internal/store"
)

// Histogram is the service's request-latency histogram — the shared obs
// implementation (lock-free, power-of-two µs buckets). The zero value is
// ready to use.
type Histogram = obs.Histogram

// HistogramSnapshot summarizes a Histogram for the JSON metrics document.
type HistogramSnapshot = obs.HistogramSnapshot

// FrontMetrics are the series the request front keeps on both binaries —
// the job and sweep counters and one request-latency histogram per route —
// on the obs.Registry that each binary's own metrics extend, so one set of
// atomics feeds both the JSON document (GET /metrics) and the Prometheus
// text exposition (GET /metrics?format=prom).
type FrontMetrics struct {
	reg    *obs.Registry
	prefix string

	JobsAccepted        *obs.Counter
	JobsRejectedInvalid *obs.Counter
	// JobsCompleted/Failed/Cancelled are the executor's to count, when a
	// job's last replica is done.
	JobsCompleted *obs.Counter
	JobsFailed    *obs.Counter
	JobsCancelled *obs.Counter
	// JobsResumed counts requests that found a journaled prefix for their
	// job_id (including jobs served entirely from the journal).
	JobsResumed *obs.Counter

	// Sweeps counts accepted /v1/sweep requests; SweepPointsHit/Miss/
	// Inflight/Error break down how their grid points resolved.
	Sweeps           *obs.Counter
	SweepPointsHit   *obs.Counter
	SweepPointsMiss  *obs.Counter
	SweepPointsInfl  *obs.Counter
	SweepPointsError *obs.Counter

	// latency histograms, keyed by endpoint name at construction.
	latency map[string]*Histogram
}

// NewFrontMetrics returns the front's series, registered on a fresh
// obs.Registry under prefix ("popkit_" or "popkit_cluster_"), with one
// latency histogram per endpoint.
func NewFrontMetrics(prefix string, endpoints ...string) *FrontMetrics {
	reg := obs.NewRegistry()
	points := "sweep grid points by cache resolution"
	m := &FrontMetrics{
		reg:                 reg,
		prefix:              prefix,
		JobsAccepted:        reg.Counter(prefix+"jobs_accepted_total", "jobs admitted to run"),
		JobsRejectedInvalid: reg.Counter(prefix+"jobs_rejected_total", "jobs rejected at admission, by reason", obs.L("reason", "invalid")),
		JobsCompleted:       reg.Counter(prefix+"jobs_completed_total", "jobs that ran every replica"),
		JobsFailed:          reg.Counter(prefix+"jobs_failed_total", "jobs that ended with an error"),
		JobsCancelled:       reg.Counter(prefix+"jobs_cancelled_total", "jobs aborted by client disconnect or timeout"),
		JobsResumed:         reg.Counter(prefix+"jobs_resumed_total", "requests that replayed a journaled prefix"),
		Sweeps:              reg.Counter(prefix+"sweeps_total", "sweep requests accepted"),
		SweepPointsHit:      reg.Counter(prefix+"sweep_points_total", points, obs.L("cache", "hit")),
		SweepPointsMiss:     reg.Counter(prefix+"sweep_points_total", points, obs.L("cache", "miss")),
		SweepPointsInfl:     reg.Counter(prefix+"sweep_points_total", points, obs.L("cache", "inflight")),
		SweepPointsError:    reg.Counter(prefix+"sweep_points_total", points, obs.L("cache", "error")),
		latency:             make(map[string]*Histogram, len(endpoints)),
	}
	for _, e := range endpoints {
		if _, dup := m.latency[e]; dup {
			continue
		}
		m.latency[e] = reg.Histogram(prefix+"http_request_duration_seconds",
			"HTTP request latency by endpoint", obs.L("endpoint", e))
	}
	return m
}

// Registry exposes the underlying obs registry (embedding binaries that want
// to add their own series to the same /metrics exposition).
func (m *FrontMetrics) Registry() *obs.Registry { return m.reg }

// Latency returns the endpoint's histogram (nil for unknown endpoints, so
// instrumentation of an unregistered route is a no-op rather than a crash).
func (m *FrontMetrics) Latency(endpoint string) *Histogram { return m.latency[endpoint] }

// LatencySnapshot summarizes every endpoint's histogram, keyed by name.
func (m *FrontMetrics) LatencySnapshot() map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(m.latency))
	for name, h := range m.latency {
		out[name] = h.Snapshot()
	}
	return out
}

// Metrics is popserved's series set: the front's, plus the job pool's.
// Everything is monotonic except the gauges (queue depth, in-flight
// workers), which are sampled at render time.
type Metrics struct {
	*FrontMetrics

	JobsRejectedFull *obs.Counter
	// JobsRejectedDraining counts simulate requests turned away with 503
	// because graceful shutdown had begun.
	JobsRejectedDraining *obs.Counter
	ReplicasCompleted    *obs.Counter
	Interactions         *obs.Counter
	InFlight             *obs.GaugeInt

	// FleetSteals counts replicas run on a lent job slot — a slot with no
	// dispatchable queued job that ran another job's unclaimed replica
	// (each job's own fleet is one worker wide, so lending is the only
	// stealing left). FleetRetries counts crash-retry attempts. Both are
	// fleet.Stats totals summed across jobs.
	FleetSteals  *obs.Counter
	FleetRetries *obs.Counter
	// ReplicaDuration is the per-replica wall-clock histogram, fed from
	// every fleet result as it completes.
	ReplicaDuration *obs.Histogram

	// queueDepth/queueCap mirror the pool's sampled gauges into the prom
	// exposition; the JSON document samples them directly.
	queueDepth *obs.GaugeInt
	queueCap   *obs.GaugeInt
}

// NewMetrics returns popserved's metrics set with one latency histogram per
// endpoint, all registered on a fresh obs.Registry under popkit_* family
// names.
func NewMetrics(endpoints ...string) *Metrics {
	return poolMetrics(NewFrontMetrics("popkit_", endpoints...))
}

// poolMetrics extends the front's series with the job pool's.
func poolMetrics(f *FrontMetrics) *Metrics {
	reg := f.reg
	rejected := "jobs rejected at admission, by reason"
	return &Metrics{
		FrontMetrics:         f,
		JobsRejectedFull:     reg.Counter("popkit_jobs_rejected_total", rejected, obs.L("reason", "queue_full")),
		JobsRejectedDraining: reg.Counter("popkit_jobs_rejected_total", rejected, obs.L("reason", "draining")),
		ReplicasCompleted:    reg.Counter("popkit_replicas_completed_total", "replicas computed successfully"),
		Interactions:         reg.Counter("popkit_interactions_total", "simulated scheduler activations served"),
		InFlight:             reg.Gauge("popkit_jobs_inflight", "jobs currently executing"),
		FleetSteals:          reg.Counter("popkit_fleet_steals_total", "replicas run on a lent job slot (an idle slot helping a running job)"),
		FleetRetries:         reg.Counter("popkit_fleet_retries_total", "extra replica attempts consumed by crashes"),
		ReplicaDuration:      reg.Histogram("popkit_fleet_replica_duration_seconds", "per-replica wall-clock time"),
		queueDepth:           reg.Gauge("popkit_queue_depth", "accepted-but-not-started jobs"),
		queueCap:             reg.Gauge("popkit_queue_capacity", "job queue capacity"),
	}
}

// MetricsSnapshot is the /metrics JSON document.
type MetricsSnapshot struct {
	JobsAccepted         int64 `json:"jobs_accepted"`
	JobsRejectedFull     int64 `json:"jobs_rejected_queue_full"`
	JobsRejectedInvalid  int64 `json:"jobs_rejected_invalid"`
	JobsRejectedDraining int64 `json:"jobs_rejected_draining"`
	JobsCompleted        int64 `json:"jobs_completed"`
	JobsFailed           int64 `json:"jobs_failed"`
	JobsCancelled        int64 `json:"jobs_cancelled"`
	JobsResumed          int64 `json:"jobs_resumed"`
	ReplicasCompleted    int64 `json:"replicas_completed"`
	// Interactions is the total number of simulated scheduler activations
	// served, including ones the counted kernels leapt over.
	Interactions uint64 `json:"interactions_total"`
	// InteractionsPerSec is the lifetime average service throughput.
	InteractionsPerSec float64 `json:"interactions_per_sec"`
	// FleetSteals/FleetRetries are the replica fleet's cumulative
	// work-stealing and crash-retry tallies across all jobs.
	FleetSteals     int64   `json:"fleet_steals_total"`
	FleetRetries    int64   `json:"fleet_retries_total"`
	QueueDepth      int     `json:"queue_depth"`
	QueueCapacity   int     `json:"queue_capacity"`
	InFlightWorkers int64   `json:"inflight_workers"`
	UptimeSec       float64 `json:"uptime_sec"`
	// Sweeps and the SweepPoints* fields tally /v1/sweep traffic.
	Sweeps              int64 `json:"sweeps"`
	SweepPointsHit      int64 `json:"sweep_points_hit"`
	SweepPointsMiss     int64 `json:"sweep_points_miss"`
	SweepPointsInflight int64 `json:"sweep_points_inflight"`
	SweepPointsError    int64 `json:"sweep_points_error"`
	// Store summarizes the content-addressed result store (present only
	// when the server runs with one).
	Store *store.Snapshot `json:"store,omitempty"`
	// QoS summarizes admission control: per-tenant admit/reject/shed
	// tallies, queue-wait and prediction-error histograms, whale gauge,
	// and the cost model's per-tier EWMA corrections.
	QoS *qos.Snapshot `json:"qos,omitempty"`
	// ReplicaLatency summarizes per-replica wall-clock time across jobs.
	ReplicaLatency HistogramSnapshot `json:"replica_latency"`
	// Latency maps endpoint name to its request-latency summary.
	Latency map[string]HistogramSnapshot `json:"latency"`
}

// Snapshot renders the counters. queueDepth/queueCap are sampled by the
// caller (the server owns the queue); started anchors the uptime.
func (m *Metrics) Snapshot(queueDepth, queueCap int, started time.Time) MetricsSnapshot {
	up := time.Since(started).Seconds()
	s := MetricsSnapshot{
		JobsAccepted:         int64(m.JobsAccepted.Load()),
		JobsRejectedFull:     int64(m.JobsRejectedFull.Load()),
		JobsRejectedInvalid:  int64(m.JobsRejectedInvalid.Load()),
		JobsRejectedDraining: int64(m.JobsRejectedDraining.Load()),
		JobsCompleted:        int64(m.JobsCompleted.Load()),
		JobsFailed:           int64(m.JobsFailed.Load()),
		JobsCancelled:        int64(m.JobsCancelled.Load()),
		JobsResumed:          int64(m.JobsResumed.Load()),
		ReplicasCompleted:    int64(m.ReplicasCompleted.Load()),
		Sweeps:               int64(m.Sweeps.Load()),
		SweepPointsHit:       int64(m.SweepPointsHit.Load()),
		SweepPointsMiss:      int64(m.SweepPointsMiss.Load()),
		SweepPointsInflight:  int64(m.SweepPointsInfl.Load()),
		SweepPointsError:     int64(m.SweepPointsError.Load()),
		Interactions:         m.Interactions.Load(),
		FleetSteals:          int64(m.FleetSteals.Load()),
		FleetRetries:         int64(m.FleetRetries.Load()),
		QueueDepth:           queueDepth,
		QueueCapacity:        queueCap,
		InFlightWorkers:      m.InFlight.Load(),
		UptimeSec:            up,
		ReplicaLatency:       m.ReplicaDuration.Snapshot(),
		Latency:              m.LatencySnapshot(),
	}
	if up > 0 {
		s.InteractionsPerSec = float64(s.Interactions) / up
	}
	return s
}

// WriteProm renders the registry in the Prometheus text exposition format,
// first refreshing the sampled gauges (queue depth/capacity, uptime) that
// other components own.
func (m *Metrics) WriteProm(w io.Writer, queueDepth, queueCap int, started time.Time) error {
	m.queueDepth.Set(int64(queueDepth))
	m.queueCap.Set(int64(queueCap))
	return m.FrontMetrics.WriteProm(w, started)
}

// WriteProm renders the registry in the Prometheus text exposition format,
// with the uptime gauge anchored at started.
func (m *FrontMetrics) WriteProm(w io.Writer, started time.Time) error {
	m.reg.GaugeFunc(m.prefix+"uptime_seconds", "seconds since the server started",
		func() float64 { return time.Since(started).Seconds() })
	return m.reg.WritePromTo(w)
}
