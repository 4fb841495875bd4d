package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fault"
	"popkit/internal/qos"
	"popkit/internal/store"
)

// QoS headers: the tenant a request bills to, and the remaining deadline
// budget (milliseconds) a re-dispatching caller propagates so a retried
// shard inherits what is left instead of a fresh full timeout.
const (
	tenantHeader   = "X-Popkit-Tenant"
	deadlineHeader = "X-Popkit-Deadline-Ms"
)

// maxAutoDeadline caps the cost-derived per-job deadline when the operator
// sets no explicit JobTimeout: predictions can be wrong by the EWMA's whole
// convergence, so even an auto deadline needs a ceiling.
const maxAutoDeadline = 15 * time.Minute

// Failpoints of the HTTP layer (see internal/fault). Both are inert unless
// enabled via POPKIT_FAILPOINTS or popserved -failpoints.
var (
	fpEnqueue = fault.New("serve/enqueue",
		"fires in the simulate handler after spec validation, before enqueue (error → 503, panic aborts the request)")
	fpStream = fault.New("serve/stream",
		"fires before each streamed record; sleep delays the record, any other kind cuts the connection mid-stream")
)

// Config sizes the service.
type Config struct {
	// Registry names the runnable protocols; nil means NewRegistry().
	Registry *Registry
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

func (c *Config) fillDefaults() {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MinJobTimeout == 0 {
		c.MinJobTimeout = 10 * time.Second
	}
	if c.WhaleGlobal == 0 {
		c.WhaleGlobal = c.Workers - 1
		if c.WhaleGlobal < 1 {
			c.WhaleGlobal = 1
		}
	}
	if c.MaxN == 0 {
		c.MaxN = 5_000_000
	}
	if c.MaxReplicas == 0 {
		c.MaxReplicas = 1024
	}
	if c.MaxSweepPoints == 0 {
		c.MaxSweepPoints = 1024
	}
	if c.SweepWorkers == 0 {
		c.SweepWorkers = c.Workers
	}
}

// Server is the HTTP simulation service. Create with New, mount Handler
// on an http.Server, and call Close (optionally preceded by Abort after a
// drain deadline) on the way down.
type Server struct {
	cfg      Config
	pool     *pool
	journals *journalSet
	metrics  *Metrics
	// model prices jobs at admission; qosM is the popkit_qos_* series set,
	// registered on the same obs registry as the rest of the metrics.
	model *qos.Model
	qosM  *qos.Metrics
	// store is the content-addressed result cache (nil unless StoreDir is
	// set); flight single-flights concurrent identical computations and is
	// always present — sweep dedupe works even without a store.
	store   *store.Store
	flight  *store.Flight
	started time.Time
	// draining flips when graceful shutdown begins: /v1/simulate rejects
	// new jobs with 503 + Retry-After (a cluster client fails over to
	// another worker) and /healthz reports "draining" with 503 so a
	// coordinator's health probe stops routing shards here.
	draining atomic.Bool
}

// New builds a server and starts its worker pool. The failure modes are an
// unusable store directory and an unusable cost model (a grid file that
// exists but does not parse, or inverted class thresholds).
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{cfg: cfg, started: time.Now()}
	model, err := qos.NewModel(qos.ModelOptions{
		GridPath:       cfg.CostModelPath,
		InteractiveMax: cfg.InteractiveMax,
		WhaleMin:       cfg.WhaleMin,
	})
	if err != nil {
		return nil, err
	}
	s.model = model
	// The metrics' endpoint set derives from the route table, so adding a
	// route cannot forget its latency histogram.
	names := make([]string, 0, 8)
	for _, rt := range s.routes() {
		names = append(names, rt.name)
	}
	m := NewMetrics(names...)
	s.metrics = m
	s.qosM = qos.NewMetrics(m.Registry())
	s.pool = newPool(qos.QueueConfig{
		PerTenantDepth: cfg.QueueDepth,
		Weights:        cfg.TenantWeights,
		MaxTenants:     cfg.MaxTenants,
		WhalePerTenant: cfg.WhalePerTenant,
		WhaleGlobal:    cfg.WhaleGlobal,
	}, cfg.Workers, cfg.MaxRetries, m, model, s.qosM)
	if cfg.JournalDir != "" {
		s.journals = newJournalSet(cfg.JournalDir)
	}
	if cfg.StoreDir != "" {
		sm := store.NewMetrics(m.Registry())
		st, err := store.Open(store.Options{
			Dir:        cfg.StoreDir,
			MaxBytes:   cfg.StoreMaxBytes,
			MaxEntries: cfg.StoreMaxEntries,
			Metrics:    sm,
		})
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.store = st
		s.flight = store.NewFlight(sm)
	} else {
		s.flight = store.NewFlight(store.NewMetrics(nil))
	}
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

// Store exposes the result store (nil when disabled; tests and /metrics).
func (s *Server) Store() *store.Store { return s.store }

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

// route is one entry of the server's route table: the metric name keying
// its latency histogram, the mux pattern, and the handler.
type route struct {
	name    string
	pattern string
	handler http.HandlerFunc
}

// routes is the authoritative route table. Both Handler (mux registration)
// and New (the metrics' endpoint set) derive from it, so every registered
// route gets a latency histogram by construction.
func (s *Server) routes() []route {
	rts := []route{
		{"simulate", "/v1/simulate", s.handleSimulate},
		{"sweep", "/v1/sweep", s.handleSweep},
		{"protocols", "/v1/protocols", s.handleProtocols},
		{"healthz", "/healthz", s.handleHealthz},
		{"metrics", "/metrics", s.handleMetrics},
	}
	if s.cfg.EnablePprof {
		rts = append(rts,
			route{"pprof", "/debug/pprof/", pprof.Index},
			route{"pprof", "/debug/pprof/cmdline", pprof.Cmdline},
			route{"pprof", "/debug/pprof/profile", pprof.Profile},
			route{"pprof", "/debug/pprof/symbol", pprof.Symbol},
			route{"pprof", "/debug/pprof/trace", pprof.Trace},
		)
	}
	return rts
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, s.instrument(rt.name, rt.handler))
	}
	return mux
}

// instrument wraps a handler with the endpoint's latency histogram.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Latency(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		if hist != nil {
			hist.Observe(time.Since(start))
		}
	}
}

// CostModel exposes the admission cost model (tests, embedding binaries).
func (s *Server) CostModel() *qos.Model { return s.model }

// errorDoc is the JSON body of every non-streaming error response. QoS is
// present on admission-control rejections (429/413/503-shed), carrying the
// predicted cost and the machine-readable reason so clients can schedule
// their retry instead of guessing.
type errorDoc struct {
	Error string  `json:"error"`
	QoS   *qosDoc `json:"qos,omitempty"`
}

// qosDoc is the structured half of an admission rejection.
type qosDoc struct {
	Tenant          string `json:"tenant"`
	Class           string `json:"class"`
	PredictedCostMs int64  `json:"predicted_cost_ms"`
	RetryAfterS     int    `json:"retry_after_s,omitempty"`
	Reason          string `json:"reason"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorDoc{Error: fmt.Sprintf(format, args...)})
}

// writeBackoff is writeError plus a computed Retry-After hint, for
// retryable rejections that predate (or sit outside) QoS admission.
func (s *Server) writeBackoff(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(s.pool.retryAfterSeconds()))
	writeError(w, status, format, args...)
}

// writeQoSReject renders a structured admission rejection: the error text,
// the prediction that drove the decision, and — for retryable statuses — a
// cost-aware Retry-After derived from the tenant's own queued backlog.
func (s *Server) writeQoSReject(w http.ResponseWriter, status int, tenant string, pred qos.Prediction, reason, format string, args ...any) {
	doc := errorDoc{
		Error: fmt.Sprintf(format, args...),
		QoS: &qosDoc{
			Tenant:          tenant,
			Class:           pred.Class.String(),
			PredictedCostMs: pred.Total.Milliseconds(),
			Reason:          reason,
		},
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		doc.QoS.RetryAfterS = s.pool.retryAfterTenant(tenant)
		w.Header().Set("Retry-After", strconv.Itoa(doc.QoS.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(doc)
}

// jobDeadline derives the per-job wall-clock budget: slack × predicted
// cost, floored at MinJobTimeout, capped by the operator's JobTimeout (or
// 15m when none is set). A caller-propagated X-Popkit-Deadline-Ms header —
// the remaining budget of a coordinator re-dispatching a shard — can only
// shrink it, so a retried shard inherits what is left.
func (s *Server) jobDeadline(pred qos.Prediction, r *http.Request) time.Duration {
	limit := s.cfg.JobTimeout
	if limit <= 0 {
		limit = maxAutoDeadline
	}
	d := qos.DeriveDeadline(pred.Total, s.cfg.MinJobTimeout, limit)
	if r != nil {
		if ms := r.Header.Get(deadlineHeader); ms != "" {
			if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
				if rem := time.Duration(v) * time.Millisecond; rem < d {
					d = rem
				}
			}
		}
	}
	return d
}

// shedReason decides overload-graceful degradation for one admission:
// during drain everything but interactive is turned away (cache hits were
// already served above), and under queue pressure whales are shed first.
// Interactive jobs are never shed — they are the cheap, human-facing tier.
func (s *Server) shedReason(class qos.Class) string {
	if s.draining.Load() && class != qos.ClassInteractive {
		return "draining"
	}
	if class == qos.ClassWhale && s.pool.overloaded() {
		return "overload"
	}
	return ""
}

// handleSimulate is POST /v1/simulate: decode a JobSpec, enqueue it, and
// stream its per-replica records back as NDJSON while the worker computes
// them. Client disconnect cancels the job; queue overflow rejects with 429
// and a queue-depth-scaled Retry-After.
//
// When the server runs with a journal directory and the spec carries a
// job_id, completed replicas are checkpointed to disk as they finish, and a
// repeat POST of the same (id, spec) replays the journaled prefix verbatim
// and computes only the remaining replicas — the full stream is
// byte-identical to an uninterrupted run.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	tenant, ok := qos.CleanTenant(r.Header.Get(tenantHeader))
	if !ok {
		s.metrics.JobsRejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, "bad %s header: want ≤64 chars of [A-Za-z0-9._-]", tenantHeader)
		return
	}
	var spec expt.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.metrics.JobsRejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	proto, err := s.cfg.Registry.Normalize(&spec, s.cfg.MaxN, s.cfg.MaxReplicas)
	if err != nil {
		s.metrics.JobsRejectedInvalid.Add(1)
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	// Content-addressed cache: a cacheable spec (whole job, no checkpoint
	// identity) resolves through the store with single-flight dedupe before
	// any fleet machinery — including the enqueue failpoint below, which is
	// how tests prove a hit truly bypasses the queue. On a hit the stored
	// bytes stream verbatim; on a miss this request leads the computation
	// (capturing the stream for commit) while concurrent identical POSTs
	// wait and then read the committed object.
	var (
		cacheHash string
		capt      *capture
		finish    func(store.Outcome)
	)
	if s.store != nil && spec.Cacheable() {
		hash := expt.SpecHash(spec)
		for leader := false; !leader; {
			if lines, ok := s.store.Get(hash); ok {
				w.Header().Set("X-Popkit-Cache", "hit")
				s.streamJob(w, metaLine(r, spec, hash, true), lines, nil, nil)
				return
			}
			var wait func(context.Context) (store.Outcome, error)
			leader, wait = s.flight.Lead(hash)
			if leader {
				break
			}
			out, err := wait(r.Context())
			if err != nil {
				// Client gone while coalesced; nothing to stream.
				writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
				return
			}
			// A committed outcome hits the store on the next loop pass; a
			// failed or uncommitted one falls through to leading ourselves.
			_ = out
		}
		cacheHash = hash
		w.Header().Set("X-Popkit-Cache", "miss")
		capt = &capture{}
		finished := false
		finish = func(out store.Outcome) {
			if !finished {
				finished = true
				s.flight.Finish(cacheHash, out)
			}
		}
		// Safety net: if the handler unwinds before the commit below (stream
		// failpoint panic, client abort), release the followers with a
		// failure so they retry rather than hang.
		defer finish(store.Outcome{Err: "request aborted"})
	}

	// QoS admission. Everything above — cache hits, single-flight followers
	// — was served without touching the queue, which is why a draining or
	// overloaded server keeps answering cached and coalesced requests.
	pred := s.model.Predict(spec, proto.Kind)
	if s.cfg.CostBudget > 0 && pred.Total > s.cfg.CostBudget {
		s.qosM.Rejected(tenant, pred.Class, "over_budget")
		s.writeQoSReject(w, http.StatusRequestEntityTooLarge, tenant, pred, "over_budget",
			"predicted cost %v exceeds the server budget %v; shrink n, replicas, or max_rounds",
			pred.Total.Round(time.Millisecond), s.cfg.CostBudget)
		return
	}
	if reason := s.shedReason(pred.Class); reason != "" {
		if reason == "draining" {
			s.metrics.JobsRejectedDraining.Add(1)
		} else {
			s.metrics.JobsRejectedFull.Add(1)
		}
		s.qosM.Shed(tenant, pred.Class, reason)
		s.writeQoSReject(w, http.StatusServiceUnavailable, tenant, pred, reason,
			"server shedding %s jobs (%s); retry (or fail over to another worker)", pred.Class, reason)
		return
	}

	if err := fpEnqueue.Inject(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "injected fault: %v", err)
		return
	}

	// Checkpoint/resume: claim the job id, load its journal, and pick up
	// after the longest contiguous successful prefix. A shard request
	// (spec.Start > 0, never combined with a job_id) instead starts at its
	// own window; replica records are unaffected either way.
	var (
		journal *expt.Journal
		replay  [][]byte
		start   = spec.Start
		onDone  func()
	)
	if spec.JobID != "" {
		if s.journals == nil {
			s.metrics.JobsRejectedInvalid.Add(1)
			writeError(w, http.StatusBadRequest, "job_id requires a journal-enabled server (start popserved with -journal)")
			return
		}
		if err := s.journals.acquire(spec.JobID); err != nil {
			s.writeBackoff(w, http.StatusConflict, "job %q is already in flight; retry later", spec.JobID)
			return
		}
		journal, replay, err = s.journals.open(spec.JobID, spec)
		if err != nil {
			s.journals.release(spec.JobID)
			if strings.Contains(err.Error(), "different job spec") {
				writeError(w, http.StatusConflict, "%v", err)
			} else {
				writeError(w, http.StatusInternalServerError, "journal: %v", err)
			}
			return
		}
		start = journal.Next()
		if start > 0 {
			s.metrics.JobsResumed.Add(1)
		}
		id := spec.JobID
		onDone = func() { s.journals.release(id) }
		if start >= spec.Replicas {
			// Every replica is journaled: serve the whole job from disk.
			journal.Close()
			s.journals.release(id)
			s.streamJob(w, metaLine(r, spec, "", false), replay, nil, nil)
			return
		}
	}

	jctx, cancel := context.WithTimeout(r.Context(), s.jobDeadline(pred, r))
	defer cancel()
	j := &queuedJob{
		spec:    spec,
		proto:   proto,
		ctx:     jctx,
		records: make(chan expt.ReplicaRecord, spec.Replicas-start),
		tenant:  tenant,
		pred:    pred,
		start:   start,
		journal: journal,
		onDone:  onDone,
	}
	if err := s.pool.tryEnqueue(j); err != nil {
		if journal != nil {
			journal.Close()
			s.journals.release(spec.JobID)
		}
		s.metrics.JobsRejectedFull.Add(1)
		reason := "queue_full"
		switch {
		case errors.Is(err, qos.ErrTenantFull):
			reason = "tenant_queue_full"
		case errors.Is(err, qos.ErrTenantLimit):
			reason = "tenant_limit"
		}
		s.qosM.Rejected(tenant, pred.Class, reason)
		s.writeQoSReject(w, http.StatusTooManyRequests, tenant, pred, reason,
			"job queue full (%d queued); retry later", s.pool.depth())
		return
	}
	// The worker now owns the journal and the job-id lock (released via
	// onDone after the journal is closed).
	s.metrics.JobsAccepted.Add(1)
	s.qosM.Admitted(tenant, pred.Class)
	s.streamJob(w, metaLine(r, spec, cacheHash, false), replay, j, capt)

	if capt != nil {
		out := store.Outcome{Records: len(capt.lines), Bytes: capt.bytes}
		if capt.failed || len(capt.lines) != spec.Replicas {
			out = store.Outcome{Err: "job did not complete"}
		} else if _, err := s.store.Commit(spec, capt.lines); err == nil {
			out.Committed = true
		}
		finish(out)
	}
}

// capture accumulates the exact record lines a miss streams, so a
// completed job commits to the store byte-identically to what the client
// received. failed flips on any error record; an incomplete capture (count
// below Replicas — cancellation, disconnect) is simply never committed.
type capture struct {
	lines  [][]byte
	bytes  int64
	failed bool
}

// metaInfo is the optional opening metadata record of a job stream,
// requested with ?meta=1. It is opt-in (and outside the spec, so outside
// the content hash) because an unconditional extra line would break the
// byte-identity contract between HTTP, CLI, and cached streams.
type metaInfo struct {
	// SpecHash is the spec's content address ("" for uncacheable specs on a
	// store-less server).
	SpecHash string `json:"spec_hash,omitempty"`
	// Cached reports whether the body was served from the result store.
	Cached   bool `json:"cached"`
	Replicas int  `json:"replicas"`
}

// metaLine renders the opening metadata record when the request asked for
// it (nil otherwise).
func metaLine(r *http.Request, spec expt.JobSpec, hash string, cached bool) []byte {
	if v := r.URL.Query().Get("meta"); v != "1" && v != "true" {
		return nil
	}
	doc := struct {
		Meta metaInfo `json:"meta"`
	}{metaInfo{SpecHash: hash, Cached: cached, Replicas: spec.Replicas}}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// streamJob writes the 200 header, the optional metadata record, the replay
// bytes (verbatim — journal prefix or cached object), then the live
// records, and finally the in-band error object if the job failed. j may be
// nil when the whole body comes from replay; capt, when non-nil, receives
// every live record line for a later store commit.
func (s *Server) streamJob(w http.ResponseWriter, meta []byte, replay [][]byte, j *queuedJob, capt *capture) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the status line out before the first record so a queued
		// job's client sees the stream open immediately.
		flusher.Flush()
	}
	writeLine := func(line []byte) {
		if out := fpStream.Eval(); out.Fire {
			if out.Kind == fault.KindSleep {
				time.Sleep(out.Sleep)
			} else {
				// Cut the connection mid-stream: the handler unwinds, the
				// request context dies, and the worker (if any) aborts its
				// remaining replicas — journaled progress survives.
				panic(http.ErrAbortHandler)
			}
		}
		if _, err := w.Write(line); err != nil {
			// Client is gone; the request context dies with it, which
			// unwinds the worker. Keep draining so the channel closes.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if meta != nil {
		writeLine(meta)
	}
	for _, line := range replay {
		writeLine(line)
	}
	if j == nil {
		return
	}
	for rec := range j.records {
		line, err := rec.MarshalLine()
		if err != nil {
			continue
		}
		if capt != nil {
			if rec.Err != "" {
				capt.failed = true
			} else {
				capt.lines = append(capt.lines, line)
				capt.bytes += int64(len(line))
			}
		}
		writeLine(line)
	}
	if err := j.err(); err != nil && capt != nil {
		capt.failed = true
	}
	if err := j.err(); err != nil && !errors.Is(err, context.Canceled) {
		// The status line is sent; signal the failure in-band as a final
		// NDJSON error object (popsim's stream carries no such line on
		// success, so successful streams stay byte-identical to the CLI).
		if doc, merr := json.Marshal(errorDoc{Error: err.Error()}); merr == nil {
			w.Write(append(doc, '\n'))
		}
	}
}

// protocolDoc is one entry of GET /v1/protocols.
type protocolDoc struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Kind        string   `json:"kind"`
	Params      []string `json:"params,omitempty"`
	// States is the per-agent state count at the reference population
	// n = 1024 — the space column of the capability matrix. Omitted when
	// the registry entry does not report one.
	States uint64 `json:"states,omitempty"`
	// StateRich marks protocols whose live species count grows with n;
	// their drivers pin the dense kernel instead of the counted tiers.
	StateRich bool `json:"state_rich,omitempty"`
}

func (s *Server) handleProtocols(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	list := s.cfg.Registry.List()
	docs := make([]protocolDoc, len(list))
	for i, p := range list {
		docs[i] = protocolDoc{
			Name: p.Name, Description: p.Description, Kind: p.Kind, Params: p.Params,
			StateRich: p.Hints.StateRich,
		}
		if p.States != nil {
			docs[i].States = p.States(1024)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Protocols []protocolDoc `json:"protocols"`
	}{docs})
}

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
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := s.metrics.Snapshot(s.pool.depth(), s.pool.capacity(), s.started)
	if s.store != nil {
		st := s.store.Metrics().Snapshot()
		snap.Store = &st
	}
	qs := s.qosM.Snapshot()
	qs.Corrections = s.model.Corrections()
	snap.QoS = &qs
	enc.Encode(snap)
}
