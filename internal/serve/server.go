package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
	"popkit/internal/qos"
)

// Config sizes the service.
type Config struct {
	// Registry names the runnable protocols; nil means catalog.NewRegistry().
	Registry *catalog.Registry
	// QueueDepth bounds the number of accepted-but-not-started jobs; a
	// full queue rejects with 429. Default 64.
	QueueDepth int
	// Workers is the number of job slots, each running one replica at a
	// time. A slot runs a dispatched job's replicas; when no queued job is
	// dispatchable it runs unclaimed replicas of the oldest running job
	// instead, so up to Workers jobs run at once and an idle slot still
	// works. Default: runtime.GOMAXPROCS(0).
	Workers int
	// MaxRetries re-runs a replica that panicked or hit an injected fault,
	// restarting it from its own seed so recovery is byte-identical.
	// Default 0 (no retries).
	MaxRetries int
	// JournalDir, when non-empty, enables checkpoint/resume: jobs that
	// carry a job_id append each completed record to
	// JournalDir/<job_id>.ndjson, and a later request with the same id and
	// spec replays the journaled prefix and computes only the rest.
	JournalDir string
	// JobTimeout caps one job's wall clock. 0 (the default) derives each
	// job's deadline from its predicted cost — slack × prediction, clamped
	// to [MinJobTimeout, 15m] — so large-n jobs get the budget they need
	// and tiny jobs stop holding a 60s grant. A non-zero value is the
	// operator override: it caps every derived deadline, so an explicit
	// flat timeout behaves exactly as before.
	JobTimeout time.Duration
	// MinJobTimeout floors the derived deadline, keeping badly
	// under-predicted jobs alive. Default 10s.
	MinJobTimeout time.Duration
	// CostModelPath loads a measured kernel cost grid
	// (results/BENCH_kernel.json) over the baked-in defaults.
	CostModelPath string
	// CostBudget rejects jobs whose predicted total cost exceeds it with a
	// structured 413 at admission — before any compute is spent. 0 means
	// no budget.
	CostBudget time.Duration
	// InteractiveMax / WhaleMin are the size-class thresholds on predicted
	// total cost (defaults 1s / 30s; see qos.ModelOptions).
	InteractiveMax time.Duration
	WhaleMin       time.Duration
	// TenantWeights gives named tenants a DRR weight (unlisted tenants get
	// weight 1). MaxTenants bounds distinct live tenant queues (default 64).
	TenantWeights map[string]int
	MaxTenants    int
	// WhalePerTenant / WhaleGlobal cap concurrently running whale-class
	// jobs per tenant and server-wide; WhaleGlobal also counts job slots
	// lent to running whales. Defaults: 1 per tenant; globally Workers−1
	// (min 1), so whales can never occupy every slot.
	WhalePerTenant int
	WhaleGlobal    int
	// MaxN caps the population size a request may ask for. Default 5e6.
	MaxN int
	// MaxReplicas caps replicas per request. Default 1024.
	MaxReplicas int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (popserved
	// -pprof). Off by default: profiling endpoints expose internals and cost
	// CPU, so they are opt-in.
	EnablePprof bool
	// StoreDir, when non-empty, enables the content-addressed result store:
	// completed cacheable jobs (no job_id, no start window) are committed
	// under the hash of their canonical spec, and a repeat POST of an
	// identical spec streams the stored bytes — byte-identical to a live
	// run — without touching the queue or fleet. Concurrent identical POSTs
	// single-flight: one computes, the rest coalesce.
	StoreDir string
	// StoreMaxBytes / StoreMaxEntries cap the store (see store.Options;
	// 0 → 256 MiB / 4096 objects, negative → unlimited).
	StoreMaxBytes   int64
	StoreMaxEntries int
	// MaxSweepPoints caps how many grid points one POST /v1/sweep may
	// expand to. Default 1024.
	MaxSweepPoints int
	// SweepWorkers bounds concurrently resolving sweep points per request.
	// Default: Workers.
	SweepWorkers int
}

// fillDefaults fills the job pool's settings; NewFront fills the rest.
func (c *Config) fillDefaults() {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WhaleGlobal == 0 {
		c.WhaleGlobal = c.Workers - 1
		if c.WhaleGlobal < 1 {
			c.WhaleGlobal = 1
		}
	}
	if c.SweepWorkers == 0 {
		c.SweepWorkers = c.Workers
	}
}

// Server is the HTTP simulation service: the request Front over the local
// job pool as its Executor. Create with New, mount Handler on an
// http.Server, and call Close (optionally preceded by Abort after a drain
// deadline) on the way down.
type Server struct {
	*Front
	pool    *pool
	metrics *Metrics
	started time.Time
	// draining flips when graceful shutdown begins: /v1/simulate rejects
	// new jobs with 503 + Retry-After (a cluster client fails over to
	// another worker) and /healthz reports "draining" with 503 so a
	// coordinator's health probe stops routing shards here.
	draining atomic.Bool
}

// New builds a server and starts its worker pool. The failure modes are
// NewFront's.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{started: time.Now()}
	front, err := NewFront(cfg, "popkit_", "simulate", s,
		Route{"healthz", "/healthz", s.handleHealthz},
		Route{"metrics", "/metrics", s.handleMetrics})
	if err != nil {
		return nil, err
	}
	s.Front = front
	s.metrics = poolMetrics(front.metrics)
	s.pool = newPool(qos.QueueConfig{
		PerTenantDepth: s.cfg.QueueDepth,
		Weights:        s.cfg.TenantWeights,
		MaxTenants:     s.cfg.MaxTenants,
		WhalePerTenant: s.cfg.WhalePerTenant,
		WhaleGlobal:    s.cfg.WhaleGlobal,
	}, s.cfg.Workers, s.cfg.MaxRetries, s.metrics, front.model, front.qosM)
	return s, nil
}

// MustNew is New for callers whose Config cannot fail (no store directory,
// or one already validated) — chiefly tests.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Metrics exposes the counter set (tests and embedding binaries).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close stops job intake and blocks until queued and in-flight jobs have
// drained, then persists the store index. Call http.Server.Shutdown first
// so no handler is still enqueueing.
func (s *Server) Close() {
	s.pool.close()
	if s.store != nil {
		s.store.Close()
	}
}

// Abort cancels in-flight jobs; pending Close calls then return promptly.
// Use when the drain deadline is blown.
func (s *Server) Abort() { s.pool.abort() }

// SetDraining marks the server as shutting down (or not). While draining,
// new simulate requests are rejected with 503 + Retry-After — retryable, so
// clients fail over instead of erroring — and /healthz turns unhealthy.
// In-flight and queued jobs still run to completion; call it just before
// http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Refuse degrades gracefully under drain and overload. While draining, a
// sweep and every job but an interactive one are turned away (cache hits
// were already served); under queue pressure whales are shed first.
// Interactive jobs are never shed — they are the cheap, human-facing tier.
func (s *Server) Refuse(pred *qos.Prediction) *Rejection {
	draining := s.draining.Load()
	rej := &Rejection{Status: http.StatusServiceUnavailable, Reason: "draining", Count: s.metrics.JobsRejectedDraining}
	switch {
	case pred == nil && draining:
		rej.Reason, rej.Msg = "", "server draining; retry (or fail over to another worker)"
		return rej
	case pred == nil:
		return nil
	case draining && pred.Class != qos.ClassInteractive:
	case pred.Class == qos.ClassWhale && s.pool.overloaded():
		rej.Reason, rej.Count = "overload", s.metrics.JobsRejectedFull
	default:
		return nil
	}
	rej.Msg = fmt.Sprintf("server shedding %s jobs (%s); retry (or fail over to another worker)", pred.Class, rej.Reason)
	return rej
}

// Submit enqueues j on its tenant's queue; a full queue is a 429. The pool
// journals each record as it completes and runs j.Done once the journal is
// closed.
func (s *Server) Submit(j *Job) (Stream, *Rejection) {
	qj := &queuedJob{Job: j, records: make(chan expt.ReplicaRecord, j.Spec.Replicas-j.Start)}
	err := s.pool.tryEnqueue(qj)
	if err == nil {
		return qj.stream, nil
	}
	reason := "queue_full"
	switch {
	case errors.Is(err, qos.ErrTenantFull):
		reason = "tenant_queue_full"
	case errors.Is(err, qos.ErrTenantLimit):
		reason = "tenant_limit"
	}
	return nil, &Rejection{
		Status: http.StatusTooManyRequests,
		Reason: reason,
		Msg:    fmt.Sprintf("job queue full (%d queued); retry later", s.pool.depth()),
		Count:  s.metrics.JobsRejectedFull,
	}
}

// RetryAfter scales the hint with the queued backlog: the whole queue's,
// and within QoS admission the tenant's own queued cost too.
func (s *Server) RetryAfter(tenant string) int { return s.pool.retryAfterTenant(tenant) }

// handleHealthz is the cheap liveness probe: it touches no queue, journal,
// or fleet state — just two sampled gauges — so a cluster coordinator can
// poll it aggressively without perturbing job traffic. A draining server
// answers 503 so probes stop routing shards here before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		InFlight   int64  `json:"inflight_workers"`
	}{status, s.pool.depth(), s.metrics.InFlight.Load()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The whale gauge is worker-maintained; refresh it at render time too so
	// an idle server reports the current truth, not the last transition.
	s.qosM.WhalesRunning.Set(int64(s.pool.whalesRunning()))
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.metrics.WriteProm(w, s.pool.depth(), s.pool.capacity(), s.started)
		return
	}
	snap := s.metrics.Snapshot(s.pool.depth(), s.pool.capacity(), s.started)
	snap.Store, snap.QoS = s.MetricsSections()
	WriteJSON(w, snap)
}
