// Package cluster shards one simulation job across many popserved workers.
//
// The coordinator is popserved's request front (serve.Front) over a
// remote executor: it accepts the same expt.JobSpec as a single popserved
// (POST /v1/jobs, with /v1/simulate as an alias), splits the job's replica
// range [0, Replicas) into contiguous shards, dispatches each shard to a
// registered worker as the same spec with a [Start, Replicas) window, and
// merges the returning streams in replica order through a fleet.OrderedSink.
// Because replica i's whole RNG stream derives from ReplicaSeed(Seed, i),
// the merged NDJSON output is byte-identical to a single-node run — for any
// worker count, any shard size, and across worker failures.
//
// Failure handling is layered:
//
//   - Each shard streams through internal/client, whose retry/reconnect
//     machinery already survives backpressure (429/409/503 + Retry-After)
//     and mid-stream cuts against the same worker.
//   - When a worker dies outright (kill -9, network partition), the client
//     gives up, the coordinator marks the worker down, and the shard's
//     remaining replicas [cursor, hi) are re-dispatched to another live
//     worker via the spec's Start window — replicas already merged are
//     never recomputed or re-emitted.
//   - With a journal directory, jobs carrying a job_id checkpoint every
//     merged record through the same fsynced expt.Journal format popserved
//     uses, so a coordinator crash costs only the replicas past the
//     journaled prefix: re-POSTing the same (job_id, spec) replays the
//     prefix verbatim and dispatches only the rest.
//
// Workers are registered explicitly (popcoord -workers, or POST
// /v1/workers at runtime) and health-checked by polling their cheap
// /healthz endpoint; a draining worker (SIGTERM) answers 503 and stops
// receiving shards before its listener closes.
package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/serve"
)

// Config sizes the coordinator.
type Config struct {
	// Registry validates and normalizes job specs; nil means
	// catalog.NewRegistry(). It must match the workers' registry, since the
	// workers re-normalize the shard specs they receive.
	Registry *catalog.Registry
	// Workers is the initial set of popserved base URLs. More can be
	// registered at runtime via POST /v1/workers.
	Workers []string
	// ShardSize caps replicas per shard. 0 sizes shards automatically to
	// about two per live worker, so one slow worker can't serialize the
	// tail of a job. Shard size never changes output bytes.
	ShardSize int
	// ProbeInterval is the worker health-check period. Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. Default 500ms.
	ProbeTimeout time.Duration
	// ClientRetries is the per-dispatch retry budget of the streaming
	// client against one worker (client.Options.MaxRetries). Default 2.
	ClientRetries int
	// DispatchRetries bounds consecutive no-progress dispatch attempts per
	// shard — re-dispatches that deliver at least one new replica reset the
	// budget, like the client's own retry accounting. Default 4.
	DispatchRetries int
	// JournalDir, when non-empty, enables coordinator checkpoint/resume
	// for jobs that carry a job_id (same journal format as popserved).
	JournalDir string
	// JobTimeout caps one job's wall clock. 0 means the deadline is derived
	// per job from the cost model's prediction (capped at 15 minutes); an
	// explicit value caps the derived deadline — it is an operator override,
	// never extended by a prediction. Workers apply their own per-shard
	// timeout on top, inheriting the remaining budget via the
	// X-Popkit-Deadline-Ms header on every shard dispatch.
	JobTimeout time.Duration
	// MinJobTimeout floors the derived deadline so a mispredicted tiny job
	// still gets a usable window. Default 10s.
	MinJobTimeout time.Duration
	// CostModelPath optionally overrides the baked-in ns-per-interaction
	// grid with a measured one (popbench output). Missing file → baked grid.
	CostModelPath string
	// CostBudget, when > 0, rejects any job whose predicted total cost
	// exceeds it with 413 — the coordinator-level admission guardrail.
	CostBudget time.Duration
	// MaxN / MaxReplicas cap accepted specs; they must not exceed the
	// workers' own caps. Defaults 5e6 and 1024.
	MaxN        int
	MaxReplicas int
	// StoreDir, when non-empty, enables the coordinator-side content-
	// addressed result store: completed cacheable jobs are committed under
	// their canonical spec hash and repeat POSTs stream the stored bytes
	// without dispatching a single shard. Coordinator and worker stores are
	// independent caches of the same pure function, so they never disagree.
	StoreDir string
	// StoreMaxBytes / StoreMaxEntries cap the store (0 → 256 MiB / 4096).
	StoreMaxBytes   int64
	StoreMaxEntries int
	// MaxSweepPoints caps POST /v1/sweep grid expansion. Default 1024.
	MaxSweepPoints int
	// SweepWorkers bounds concurrently resolving sweep points per request —
	// each miss fans out across the worker fleet, so a handful go a long
	// way. Default 4.
	SweepWorkers int
	// HTTPClient overrides http.DefaultClient for probes and shard streams.
	HTTPClient *http.Client
	// Logf, when set, receives one line per dispatch failure and worker
	// transition (diagnostics only).
	Logf func(format string, args ...any)
}

// fillDefaults fills the dispatch settings; serve.NewFront fills the
// front's.
func (c *Config) fillDefaults() {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.ClientRetries == 0 {
		c.ClientRetries = 2
	}
	if c.DispatchRetries == 0 {
		c.DispatchRetries = 4
	}
	if c.SweepWorkers == 0 {
		c.SweepWorkers = 4
	}
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
}

// Coordinator shards jobs across the registered workers: the request front
// with the coordinator itself as its Executor. Create with New, start
// health probing with Start, and mount Handler on an http.Server.
type Coordinator struct {
	*serve.Front
	cfg     Config
	workers *workerSet
	metrics *Metrics
	started time.Time

	stopOnce sync.Once
	stopCh   chan struct{}
}

// New builds a coordinator with cfg's initial workers registered (but not
// yet probed — call Start, or ProbeNow for a synchronous first check).
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	c := &Coordinator{
		cfg:     cfg,
		started: time.Now(),
		stopCh:  make(chan struct{}),
	}
	front, err := serve.NewFront(serve.Config{
		Registry:        cfg.Registry,
		JournalDir:      cfg.JournalDir,
		JobTimeout:      cfg.JobTimeout,
		MinJobTimeout:   cfg.MinJobTimeout,
		CostModelPath:   cfg.CostModelPath,
		CostBudget:      cfg.CostBudget,
		MaxN:            cfg.MaxN,
		MaxReplicas:     cfg.MaxReplicas,
		StoreDir:        cfg.StoreDir,
		StoreMaxBytes:   cfg.StoreMaxBytes,
		StoreMaxEntries: cfg.StoreMaxEntries,
		MaxSweepPoints:  cfg.MaxSweepPoints,
		SweepWorkers:    cfg.SweepWorkers,
	}, "popkit_cluster_", "jobs", c,
		serve.Route{Name: "workers", Pattern: "/v1/workers", Handler: c.handleWorkers},
		serve.Route{Name: "healthz", Pattern: "/healthz", Handler: c.handleHealthz},
		serve.Route{Name: "metrics", Pattern: "/metrics", Handler: c.handleMetrics})
	if err != nil {
		return nil, err
	}
	c.Front = front
	c.metrics = newMetrics(front.FrontMetrics())
	c.workers = newWorkerSet(cfg.HTTPClient, cfg.ProbeTimeout, c.metrics)
	for _, u := range cfg.Workers {
		if err := c.workers.add(u); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// Metrics exposes the counter set (tests and embedding binaries).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Workers lists the registered workers and their health.
func (c *Coordinator) Workers() []WorkerInfo { return c.workers.snapshot() }

// Start launches the background health-check loop (one concurrent probe
// sweep per ProbeInterval), beginning with a synchronous sweep so callers
// observe real liveness as soon as Start returns; it returns that sweep's
// live count. Stop ends the loop.
func (c *Coordinator) Start() int {
	live := c.ProbeNow()
	go func() {
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopCh:
				return
			case <-t.C:
				c.ProbeNow()
			}
		}
	}()
	return live
}

// ProbeNow runs one synchronous health sweep and returns the live count.
func (c *Coordinator) ProbeNow() int {
	return c.workers.probeAll(context.Background())
}

// Stop ends the health-check loop and persists the store index. In-flight
// jobs are unaffected (their request contexts govern them).
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stopCh)
		if st := c.Store(); st != nil {
			st.Close()
		}
	})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
