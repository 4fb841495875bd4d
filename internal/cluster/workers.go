package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"popkit/internal/obs"
	"popkit/internal/serve"
)

// WorkerInfo is the externally visible state of one registered worker, as
// listed by GET /v1/workers and the coordinator's /healthz.
type WorkerInfo struct {
	URL string `json:"url"`
	// Live reports the worker's last known health: true after a 200 from
	// its /healthz (or a successful shard), false after a failed probe, a
	// draining 503, or a shard dispatch that died against it.
	Live bool `json:"live"`
	// LastErr is the most recent probe or dispatch failure ("" when Live).
	LastErr string `json:"last_err,omitempty"`
	// Inflight counts shards currently dispatched to the worker.
	Inflight int `json:"inflight_shards"`
	// Shards counts shard dispatches ever routed to the worker.
	Shards int64 `json:"shards_total"`
}

// worker is one registered popserved instance.
type worker struct {
	url      string
	live     bool
	lastErr  string
	inflight int
	shards   int64
	// shardDur observes each shard attempt's wall clock against this
	// worker (the per-worker latency series of the cluster metrics).
	shardDur *obs.Histogram
}

// workerSet is the coordinator's registry of popserved workers: explicit
// registration (flags or POST /v1/workers), periodic /healthz probing, and
// least-loaded live-worker selection for shard dispatch. Liveness is
// advisory — dispatch failures mark a worker down immediately, and the next
// successful probe revives it.
type workerSet struct {
	client  *http.Client
	timeout time.Duration
	metrics *Metrics

	mu      sync.Mutex
	workers map[string]*worker
}

func newWorkerSet(client *http.Client, probeTimeout time.Duration, m *Metrics) *workerSet {
	return &workerSet{
		client:  client,
		timeout: probeTimeout,
		metrics: m,
		workers: make(map[string]*worker),
	}
}

// add registers a worker by base URL (scheme://host[:port]); adding an
// existing URL is a no-op. New workers start not-live until their first
// successful probe, so a registration typo cannot attract shards.
func (s *workerSet) add(rawURL string) error {
	base := strings.TrimRight(rawURL, "/")
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("worker URL must be http(s)://host[:port], got %q", rawURL)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.workers[base]; dup {
		return nil
	}
	s.workers[base] = &worker{
		url:      base,
		shardDur: s.metrics.WorkerShardDuration(base),
	}
	s.metrics.Workers.Set(int64(len(s.workers)))
	return nil
}

// snapshot lists every worker, sorted by URL.
func (s *workerSet) snapshot() []WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.workers))
	for _, w := range s.workers {
		out = append(out, WorkerInfo{
			URL: w.url, Live: w.live, LastErr: w.lastErr,
			Inflight: w.inflight, Shards: w.shards,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// counts returns (registered, live) worker tallies.
func (s *workerSet) counts() (total, live int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.workers {
		if w.live {
			live++
		}
	}
	return len(s.workers), live
}

// pick claims the least-loaded live worker (ties broken by URL so selection
// is deterministic), skipping avoidURL when any other live worker exists —
// the re-dispatch case, where the avoided worker just failed a shard. The
// claim increments the worker's inflight count; the caller must release.
func (s *workerSet) pick(avoidURL string) *worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := s.pickLocked(avoidURL)
	if best == nil && avoidURL != "" {
		best = s.pickLocked("")
	}
	if best != nil {
		best.inflight++
		best.shards++
	}
	return best
}

func (s *workerSet) pickLocked(avoidURL string) *worker {
	var best *worker
	for _, w := range s.workers {
		if !w.live || w.url == avoidURL {
			continue
		}
		if best == nil || w.inflight < best.inflight ||
			(w.inflight == best.inflight && w.url < best.url) {
			best = w
		}
	}
	return best
}

// release returns a claim taken by pick, optionally observing the shard
// attempt's duration on the worker's latency series.
func (s *workerSet) release(w *worker, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.inflight > 0 {
		w.inflight--
	}
	w.shardDur.Observe(elapsed)
}

// markDown records a dispatch failure: the worker stops receiving shards
// until a probe sees it healthy again.
func (s *workerSet) markDown(w *worker, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.live {
		w.live = false
		s.metrics.WorkersLost.Add(1)
	}
	w.lastErr = err.Error()
	s.updateLiveLocked()
}

func (s *workerSet) updateLiveLocked() {
	live := 0
	for _, w := range s.workers {
		if w.live {
			live++
		}
	}
	s.metrics.WorkersLive.Set(int64(live))
}

// probeAll checks every registered worker's /healthz concurrently and
// updates liveness. It returns the number of live workers afterwards.
func (s *workerSet) probeAll(ctx context.Context) int {
	s.mu.Lock()
	targets := make([]*worker, 0, len(s.workers))
	for _, w := range s.workers {
		targets = append(targets, w)
	}
	s.mu.Unlock()

	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, w := range targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			errs[i] = s.probe(ctx, url)
		}(i, w.url)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	for i, w := range targets {
		if errs[i] == nil {
			w.live = true
			w.lastErr = ""
		} else {
			if w.live {
				s.metrics.WorkersLost.Add(1)
			}
			w.live = false
			w.lastErr = errs[i].Error()
		}
	}
	s.updateLiveLocked()
	live := 0
	for _, w := range s.workers {
		if w.live {
			live++
		}
	}
	return live
}

// probe GETs one worker's /healthz under the probe timeout. Anything but a
// 200 — connection refused, timeout, or a draining worker's 503 — is down.
func (s *workerSet) probe(ctx context.Context, baseURL string) error {
	ctx, cancel := context.WithTimeout(ctx, s.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	s.metrics.Probes.Inc()
	resp, err := s.client.Do(req)
	if err != nil {
		s.metrics.ProbeFailures.Inc()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.metrics.ProbeFailures.Inc()
		return fmt.Errorf("healthz returned %s", resp.Status)
	}
	return nil
}

// registerDoc is the body of POST /v1/workers.
type registerDoc struct {
	URL string `json:"url"`
}

// handleWorkers is the registration surface: GET lists the workers and
// their health; POST {"url": "http://host:port"} registers one and probes
// it immediately so a healthy worker is routable as soon as the call
// returns.
func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		var doc registerDoc
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad registration: %v", err)
			return
		}
		if err := c.workers.add(doc.URL); err != nil {
			serve.WriteError(w, http.StatusBadRequest, "bad registration: %v", err)
			return
		}
		c.ProbeNow()
	default:
		w.Header().Set("Allow", "GET, POST")
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	serve.WriteJSON(w, struct {
		Workers []WorkerInfo `json:"workers"`
	}{c.workers.snapshot()})
}

// handleHealthz reports the coordinator's own liveness plus the cluster
// view: how many workers are registered and how many are passing probes. A
// coordinator with zero live workers is degraded (503) — it cannot place
// shards — but still answers, so operators can tell "coordinator down"
// from "fleet down".
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	total, live := c.workers.counts()
	status := "ok"
	code := http.StatusOK
	if live == 0 {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Live    int    `json:"workers_live"`
	}{status, total, live})
}
