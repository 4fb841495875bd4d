package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fault"
	"popkit/internal/obs"
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

// ErrNegativeLimit rejects a negative JobTimeout, MinJobTimeout, CostBudget
// or MaxSweepPoints. Both binaries exit 2 on it.
var ErrNegativeLimit = errors.New("negative limit")

// An Executor runs the jobs its Front admits: the local job pool in
// popserved, shard dispatch across workers in popcoord. The front owns
// everything else about a request — decoding, the store, pricing, the
// journal, the stream — so the two binaries differ only here and in the
// routes they serve themselves.
type Executor interface {
	// Refuse is the executor's own admission check, made after the front
	// has priced a job and before it claims the job's journal. A sweep asks
	// once, with a nil prediction, before it decodes its grid.
	Refuse(pred *qos.Prediction) *Rejection
	// Submit starts j. A rejection with status 429 means the executor is
	// full; the sweep's miss path waits and submits again.
	Submit(j *Job) (Stream, *Rejection)
	// RetryAfter is the Retry-After hint, in seconds, of a retryable
	// rejection; tenant is empty outside QoS admission.
	RetryAfter(tenant string) int
}

// Job is one admitted job as the front hands it to its Executor.
type Job struct {
	Spec  expt.JobSpec
	Proto *Protocol
	// Ctx ends with the client's request or the job's derived deadline,
	// whichever comes first; the executor aborts the job when it is done.
	Ctx    context.Context
	Tenant string
	Pred   qos.Prediction
	// Start is the first replica to run; the ones below it were replayed
	// from the journal.
	Start int
	// Journal, when non-nil, must receive each completed record before the
	// record is streamed, so a crash costs only the replicas past it.
	Journal *expt.Journal
	// Done, when non-nil, must run exactly once, after the executor last
	// touches Journal: it closes the journal and frees the job id.
	Done func()
}

// Stream delivers a submitted job's records to emit in replica order, each
// with its exact wire line, and returns the job's terminal error.
type Stream func(emit func(rec expt.ReplicaRecord, line []byte)) error

// A Rejection is an executor's refusal of a job or a sweep. The front
// tallies it and renders it as the JSON error body with a Retry-After hint.
type Rejection struct {
	Status int
	// Reason is the machine-readable QoS reason; it adds the qos section
	// to the body, and a 503 with a reason is a shed. Empty for a plain
	// backoff.
	Reason string
	Msg    string
	// Count tallies the rejection in the executor's own metrics.
	Count *obs.Counter
}

// Route is one entry of a server's route table: the metric name keying
// its latency histogram, the mux pattern, and the handler.
type Route struct {
	Name    string
	Pattern string
	Handler http.HandlerFunc
}

// Front is the request path popserved and popcoord share: the job, sweep
// and protocol endpoints over one Executor, with the result store and
// single-flight, cost-based admission, journals, and the metrics of all of
// it. Create with NewFront and mount Handler.
type Front struct {
	cfg   Config
	exec  Executor
	table []Route
	// metrics holds the shared job and sweep counters and the route
	// latencies; qosM is the popkit_qos_* series set on the same registry.
	metrics *FrontMetrics
	// model prices jobs at admission.
	model *qos.Model
	qosM  *qos.Metrics
	// store is the content-addressed result cache (nil unless StoreDir is
	// set); flight single-flights concurrent identical computations and is
	// always present — sweep dedupe works even without a store.
	store    *store.Store
	flight   *store.Flight
	journals *journalSet
}

// NewFront builds a binary's request front over exec. prefix names its
// metric families ("popkit_" or "popkit_cluster_"), jobRoute names its job
// endpoint /v1/<jobRoute>, and own lists the routes exec serves itself.
// Only cfg's front settings are read: Registry, MaxN, MaxReplicas, the
// timeouts, the cost model and budget, JournalDir, the store, the sweep
// limits and EnablePprof. The failure modes are a negative limit
// (ErrNegativeLimit), an unusable cost model (a grid file that exists but
// does not parse, or inverted class thresholds) and an unusable store
// directory.
func NewFront(cfg Config, prefix, jobRoute string, exec Executor, own ...Route) (*Front, error) {
	if err := cfg.fillFront(); err != nil {
		return nil, err
	}
	model, err := qos.NewModel(qos.ModelOptions{
		GridPath:       cfg.CostModelPath,
		InteractiveMax: cfg.InteractiveMax,
		WhaleMin:       cfg.WhaleMin,
	})
	if err != nil {
		return nil, err
	}
	f := &Front{cfg: cfg, exec: exec, model: model}
	f.table = []Route{{jobRoute, "/v1/" + jobRoute, f.handleJob}}
	if jobRoute != "simulate" {
		// A coordinator is a drop-in for a single popserved, so the
		// worker's simulate path takes the same specs.
		f.table = append(f.table, Route{jobRoute, "/v1/simulate", f.handleJob})
	}
	f.table = append(f.table,
		Route{"sweep", "/v1/sweep", f.handleSweep},
		Route{"protocols", "/v1/protocols", f.handleProtocols})
	f.table = append(f.table, own...)
	if cfg.EnablePprof {
		f.table = append(f.table,
			Route{"pprof", "/debug/pprof/", pprof.Index},
			Route{"pprof", "/debug/pprof/cmdline", pprof.Cmdline},
			Route{"pprof", "/debug/pprof/profile", pprof.Profile},
			Route{"pprof", "/debug/pprof/symbol", pprof.Symbol},
			Route{"pprof", "/debug/pprof/trace", pprof.Trace},
		)
	}
	// The metrics' endpoint set derives from the route table, so adding a
	// route cannot forget its latency histogram.
	names := make([]string, len(f.table))
	for i, rt := range f.table {
		names[i] = rt.Name
	}
	f.metrics = NewFrontMetrics(prefix, names...)
	f.qosM = qos.NewMetrics(f.metrics.reg)
	if cfg.JournalDir != "" {
		f.journals = newJournalSet(cfg.JournalDir)
	}
	if cfg.StoreDir != "" {
		sm := store.NewMetrics(f.metrics.reg)
		st, err := store.Open(store.Options{
			Dir:        cfg.StoreDir,
			MaxBytes:   cfg.StoreMaxBytes,
			MaxEntries: cfg.StoreMaxEntries,
			Metrics:    sm,
		})
		if err != nil {
			return nil, err
		}
		f.store = st
		f.flight = store.NewFlight(sm)
	} else {
		f.flight = store.NewFlight(store.NewMetrics(nil))
	}
	return f, nil
}

// fillFront fills the defaults of the front's settings and rejects
// negative limits — a negative MaxSweepPoints would lift the grid cap
// that keeps a tiny POST from expanding without bound.
func (c *Config) fillFront() error {
	for _, lim := range []struct {
		flag string
		v    int64
	}{
		{"-job-timeout", int64(c.JobTimeout)},
		{"-min-job-timeout", int64(c.MinJobTimeout)},
		{"-cost-budget", int64(c.CostBudget)},
		{"-max-sweep-points", int64(c.MaxSweepPoints)},
	} {
		if lim.v < 0 {
			return fmt.Errorf("%w: %s must be ≥ 0", ErrNegativeLimit, lim.flag)
		}
	}
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.MinJobTimeout == 0 {
		c.MinJobTimeout = 10 * time.Second
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
	return nil
}

// Handler returns the route table as an http.Handler, each route timed by
// its latency histogram.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range f.table {
		mux.HandleFunc(rt.Pattern, f.instrument(rt.Name, rt.Handler))
	}
	return mux
}

// routes is the route table: the front's own routes, then the executor's.
func (f *Front) routes() []Route { return f.table }

// instrument wraps a handler with the endpoint's latency histogram.
func (f *Front) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	hist := f.metrics.Latency(name)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		if hist != nil {
			hist.Observe(time.Since(start))
		}
	}
}

// Store exposes the result store (nil when disabled; tests and /metrics).
func (f *Front) Store() *store.Store { return f.store }

// CostModel exposes the admission cost model (tests, embedding binaries).
func (f *Front) CostModel() *qos.Model { return f.model }

// FrontMetrics exposes the front's counters, which each binary's own
// metrics set extends.
func (f *Front) FrontMetrics() *FrontMetrics { return f.metrics }

// MetricsSections renders the store and QoS sections of a /metrics JSON
// document; the store section is nil without a store.
func (f *Front) MetricsSections() (*store.Snapshot, *qos.Snapshot) {
	var st *store.Snapshot
	if f.store != nil {
		snap := f.store.Metrics().Snapshot()
		st = &snap
	}
	qs := f.qosM.Snapshot()
	qs.Corrections = f.model.Corrections()
	return st, &qs
}

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

// WriteError writes the JSON error body every non-streaming error response
// carries.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorDoc{Error: fmt.Sprintf(format, args...)})
}

// WriteJSON writes v as an indented JSON document with status 200.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeBackoff is WriteError plus the executor's Retry-After hint, for
// retryable rejections that sit outside QoS admission.
func (f *Front) writeBackoff(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(f.exec.RetryAfter("")))
	WriteError(w, status, format, args...)
}

// reject tallies rej and renders it. A rejection with a QoS reason is a
// structured admission rejection: the error text, the prediction that drove
// the decision, and — for retryable statuses — the Retry-After the executor
// derives for the tenant.
func (f *Front) reject(w http.ResponseWriter, tenant string, pred qos.Prediction, rej *Rejection) {
	rej.Count.Inc()
	if rej.Reason == "" {
		f.writeBackoff(w, rej.Status, "%s", rej.Msg)
		return
	}
	if rej.Status == http.StatusServiceUnavailable {
		f.qosM.Shed(tenant, pred.Class, rej.Reason)
	} else {
		f.qosM.Rejected(tenant, pred.Class, rej.Reason)
	}
	doc := errorDoc{
		Error: rej.Msg,
		QoS: &qosDoc{
			Tenant:          tenant,
			Class:           pred.Class.String(),
			PredictedCostMs: pred.Total.Milliseconds(),
			Reason:          rej.Reason,
		},
	}
	if rej.Status == http.StatusTooManyRequests || rej.Status == http.StatusServiceUnavailable {
		doc.QoS.RetryAfterS = f.exec.RetryAfter(tenant)
		w.Header().Set("Retry-After", strconv.Itoa(doc.QoS.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(rej.Status)
	json.NewEncoder(w).Encode(doc)
}

// overBudget is the 413 of a job predicted beyond CostBudget (nil within).
func (f *Front) overBudget(pred qos.Prediction) *Rejection {
	if f.cfg.CostBudget <= 0 || pred.Total <= f.cfg.CostBudget {
		return nil
	}
	return &Rejection{
		Status: http.StatusRequestEntityTooLarge,
		Reason: "over_budget",
		Msg: fmt.Sprintf("predicted cost %v exceeds the server budget %v; shrink n, replicas, or max_rounds",
			pred.Total.Round(time.Millisecond), f.cfg.CostBudget),
	}
}

// jobDeadline derives the per-job wall-clock budget: slack × predicted
// cost, floored at MinJobTimeout, capped by the operator's JobTimeout (or
// 15m when none is set). A caller-propagated X-Popkit-Deadline-Ms header —
// the remaining budget of a coordinator re-dispatching a shard — can only
// shrink it, so a retried shard inherits what is left.
func (f *Front) jobDeadline(pred qos.Prediction, r *http.Request) time.Duration {
	limit := f.cfg.JobTimeout
	if limit <= 0 {
		limit = maxAutoDeadline
	}
	d := qos.DeriveDeadline(pred.Total, f.cfg.MinJobTimeout, limit)
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

// decode reads the tenant header and the JSON body (unknown fields
// refused) into v, answering a counted 400 when either is bad.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, v any, what string) (tenant string, ok bool) {
	tenant, ok = qos.CleanTenant(r.Header.Get(tenantHeader))
	if !ok {
		f.metrics.JobsRejectedInvalid.Add(1)
		WriteError(w, http.StatusBadRequest, "bad %s header: want ≤64 chars of [A-Za-z0-9._-]", tenantHeader)
		return "", false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		f.metrics.JobsRejectedInvalid.Add(1)
		WriteError(w, http.StatusBadRequest, "bad %s: %v", what, err)
		return "", false
	}
	return tenant, true
}

// handleJob is POST /v1/simulate (and popcoord's /v1/jobs): decode a
// JobSpec, admit it, hand it to the executor, and stream its per-replica
// records back as NDJSON as they complete. Client disconnect cancels the
// job.
//
// With a journal directory and a job_id, completed replicas are
// checkpointed to disk as they finish, and a repeat POST of the same (id,
// spec) replays the journaled prefix verbatim and runs only the remaining
// replicas — the full stream is byte-identical to an uninterrupted run.
func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var spec expt.JobSpec
	tenant, ok := f.decode(w, r, &spec, "job spec")
	if !ok {
		return
	}
	proto, err := f.cfg.Registry.Normalize(&spec, f.cfg.MaxN, f.cfg.MaxReplicas)
	if err != nil {
		f.metrics.JobsRejectedInvalid.Add(1)
		WriteError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	// Content-addressed cache: a cacheable spec (whole job, no checkpoint
	// identity) resolves through the store with single-flight dedupe before
	// any admission — including the enqueue failpoint below, which is how
	// tests prove a hit truly bypasses the executor. On a hit the stored
	// bytes stream verbatim; on a miss this request leads the computation
	// (capturing the stream for commit) while concurrent identical POSTs
	// wait and then read the committed object.
	var (
		cacheHash string
		capt      *capture
		finish    func(store.Outcome)
	)
	if f.store != nil && spec.Cacheable() {
		hash := expt.SpecHash(spec)
		for leader := false; !leader; {
			if lines, ok := f.store.Get(hash); ok {
				w.Header().Set("X-Popkit-Cache", "hit")
				streamJob(w, metaLine(r, spec, hash, true), lines, nil, nil)
				return
			}
			var wait func(context.Context) (store.Outcome, error)
			leader, wait = f.flight.Lead(hash)
			if leader {
				break
			}
			// A committed outcome hits the store on the next loop pass; a
			// failed or uncommitted one falls through to leading ourselves.
			if _, err := wait(r.Context()); err != nil {
				// Client gone while coalesced; nothing to stream.
				WriteError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
				return
			}
		}
		cacheHash = hash
		w.Header().Set("X-Popkit-Cache", "miss")
		capt = &capture{}
		finished := false
		finish = func(out store.Outcome) {
			if !finished {
				finished = true
				f.flight.Finish(cacheHash, out)
			}
		}
		// Safety net: if the handler unwinds before the commit below (stream
		// failpoint panic, client abort), release the followers with a
		// failure so they retry rather than hang.
		defer finish(store.Outcome{Err: "request aborted"})
	}

	// Admission. Everything above — cache hits, single-flight followers —
	// was served without asking the executor, which is why a draining
	// server or a dark fleet keeps answering cached and coalesced requests.
	pred := f.model.Predict(spec, proto.Kind)
	if rej := f.overBudget(pred); rej != nil {
		f.reject(w, tenant, pred, rej)
		return
	}
	if rej := f.exec.Refuse(&pred); rej != nil {
		f.reject(w, tenant, pred, rej)
		return
	}
	if err := fpEnqueue.Inject(r.Context()); err != nil {
		WriteError(w, http.StatusServiceUnavailable, "injected fault: %v", err)
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
		done    func()
	)
	if spec.JobID != "" {
		if f.journals == nil {
			f.metrics.JobsRejectedInvalid.Add(1)
			WriteError(w, http.StatusBadRequest, "job_id requires a journal-enabled server (start it with -journal)")
			return
		}
		if err := f.journals.acquire(spec.JobID); err != nil {
			f.writeBackoff(w, http.StatusConflict, "job %q is already in flight; retry later", spec.JobID)
			return
		}
		id := spec.JobID
		journal, replay, err = f.journals.open(id, spec)
		if err != nil {
			f.journals.release(id)
			if strings.Contains(err.Error(), "different job spec") {
				WriteError(w, http.StatusConflict, "%v", err)
			} else {
				WriteError(w, http.StatusInternalServerError, "journal: %v", err)
			}
			return
		}
		start = journal.Next()
		if start > 0 {
			f.metrics.JobsResumed.Add(1)
		}
		done = func() {
			journal.Close()
			f.journals.release(id)
		}
		if start >= spec.Replicas {
			// Every replica is journaled: serve the whole job from disk.
			done()
			streamJob(w, metaLine(r, spec, "", false), replay, nil, nil)
			return
		}
	}

	jctx, cancel := context.WithTimeout(r.Context(), f.jobDeadline(pred, r))
	defer cancel()
	stream, rej := f.exec.Submit(&Job{
		Spec:    spec,
		Proto:   proto,
		Ctx:     jctx,
		Tenant:  tenant,
		Pred:    pred,
		Start:   start,
		Journal: journal,
		Done:    done,
	})
	if rej != nil {
		if done != nil {
			done()
		}
		f.reject(w, tenant, pred, rej)
		return
	}
	// The executor now owns the journal and the job-id lock (released via
	// Done once it is finished with the journal).
	f.metrics.JobsAccepted.Add(1)
	f.qosM.Admitted(tenant, pred.Class)
	streamJob(w, metaLine(r, spec, cacheHash, false), replay, stream, capt)

	if capt != nil {
		out := store.Outcome{Records: len(capt.lines), Bytes: capt.bytes}
		if capt.failed || len(capt.lines) != spec.Replicas {
			out = store.Outcome{Err: "job did not complete"}
		} else if _, err := f.store.Commit(spec, capt.lines); err == nil {
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

// openNDJSON writes the 200 header of an NDJSON stream, pushes it out
// before the first line so a queued job's client sees the stream open
// immediately, and returns the line writer. A write error means the client
// is gone; its request context then unwinds the work, and the writer keeps
// accepting lines so the producer drains.
func openNDJSON(w http.ResponseWriter) func(line []byte) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	return func(line []byte) {
		if _, err := w.Write(line); err == nil && flusher != nil {
			flusher.Flush()
		}
	}
}

// streamJob writes the stream: the optional metadata record, the replay
// bytes (verbatim — journal prefix or cached object), then the live records
// of stream, and finally the in-band error object if the job failed.
// stream is nil when the whole body comes from replay; capt, when non-nil,
// receives every live record line for a later store commit.
func streamJob(w http.ResponseWriter, meta []byte, replay [][]byte, stream Stream, capt *capture) {
	write := openNDJSON(w)
	writeLine := func(line []byte) {
		if out := fpStream.Eval(); out.Fire {
			if out.Kind == fault.KindSleep {
				time.Sleep(out.Sleep)
			} else {
				// Cut the connection mid-stream: the handler unwinds, the
				// request context dies, and the executor aborts the job's
				// remaining replicas — journaled progress survives.
				panic(http.ErrAbortHandler)
			}
		}
		write(line)
	}
	if meta != nil {
		writeLine(meta)
	}
	for _, line := range replay {
		writeLine(line)
	}
	if stream == nil {
		return
	}
	err := stream(func(rec expt.ReplicaRecord, line []byte) {
		if capt != nil {
			if rec.Err != "" {
				capt.failed = true
			} else {
				capt.lines = append(capt.lines, line)
				capt.bytes += int64(len(line))
			}
		}
		writeLine(line)
	})
	if err != nil && capt != nil {
		capt.failed = true
	}
	if err != nil && !errors.Is(err, context.Canceled) {
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

func (f *Front) handleProtocols(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	list := f.cfg.Registry.List()
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
	WriteJSON(w, struct {
		Protocols []protocolDoc `json:"protocols"`
	}{docs})
}
