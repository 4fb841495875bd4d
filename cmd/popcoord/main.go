// Command popcoord is the cluster coordinator: it shards one simulation job
// across many popserved workers and merges the returning streams in replica
// order, so the cluster's NDJSON output is byte-identical to a single
// popserved running the same spec — for any worker count, any shard size,
// and across worker failures.
//
// Usage:
//
//	popcoord -workers URL[,URL...] [-addr HOST:PORT] [-shard-size N]
//	         [-probe-interval D] [-probe-timeout D] [-client-retries N]
//	         [-dispatch-retries N] [-journal DIR] [-job-timeout D]
//	         [-min-job-timeout D] [-cost-model FILE] [-cost-budget D]
//	         [-max-n N] [-max-replicas N] [-store DIR] [-store-max-bytes N]
//	         [-store-max-entries N] [-max-sweep-points N] [-drain D] [-v]
//
// Requests go through popserved's own request front (serve.Front), so
// decoding, the result store, admission, journals and streaming behave —
// and fail — exactly as on a single popserved: each job's cost is predicted
// from the ns-per-interaction model, -cost-budget turns predictably hopeless
// jobs away with a structured 413, and the per-job deadline derives from the
// prediction (capped by -job-timeout when set). Every shard dispatch — and
// every re-dispatch after a worker death — carries the job's REMAINING
// deadline budget (X-Popkit-Deadline-Ms) plus the originating tenant
// (X-Popkit-Tenant), so workers inherit what is left rather than a fresh
// timeout and bill the right tenant lane.
//
// Workers are popserved instances reachable at the given base URLs; more
// can be registered at runtime with POST /v1/workers {"url": "..."}. The
// coordinator polls each worker's /healthz every -probe-interval and only
// dispatches shards to live workers. A worker that dies mid-shard (kill -9
// included) is marked down and its remaining replicas are re-dispatched to
// another worker, resuming exactly where the stream stopped.
//
// With -journal DIR, jobs that carry a job_id checkpoint every merged
// record to DIR/<job_id>.ndjson; re-POSTing the same (job_id, spec) after a
// coordinator crash replays the journaled prefix and dispatches only the
// rest — the same resume contract popserved offers on a single node.
//
// With -store DIR, completed cacheable jobs are committed to a coordinator-
// side content-addressed result store and repeat POSTs stream the stored
// bytes back without dispatching a single shard (X-Popkit-Cache: hit) —
// a cached job is served even with zero live workers. The store also backs
// POST /v1/sweep, which runs only the uncached grid points on the fleet.
//
// Endpoints:
//
//	POST /v1/jobs       run a job sharded across the cluster, stream NDJSON
//	                    (?meta=1 prepends the metadata record)
//	POST /v1/simulate   alias for /v1/jobs (drop-in for a single popserved)
//	POST /v1/sweep      expand a parameter grid, dedupe against the result
//	                    store and in-flight jobs, stream one manifest line
//	                    per point plus a summary
//	GET  /v1/workers    list registered workers and their health
//	POST /v1/workers    register a worker: {"url": "http://host:port"}
//	GET  /v1/protocols  list runnable protocols (popserved's document)
//	GET  /healthz       coordinator liveness + live-worker count
//	GET  /metrics       JSON counters (cluster size, shards, per-worker
//	                    latency); ?format=prom for Prometheus text
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops and in-flight
// jobs drain under the -drain deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"popkit/internal/cluster"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr            = flag.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
		workers         = flag.String("workers", "", "comma-separated popserved base URLs (e.g. http://127.0.0.1:8080)")
		shardSize       = flag.Int("shard-size", 0, "max replicas per shard (0 = auto: ~2 shards per live worker)")
		probeInterval   = flag.Duration("probe-interval", time.Second, "worker health-check period")
		probeTimeout    = flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
		clientRetries   = flag.Int("client-retries", 2, "streaming-client retries per dispatch before failing over")
		dispatchRetries = flag.Int("dispatch-retries", 4, "consecutive no-progress dispatches before a shard fails")
		journalDir      = flag.String("journal", "", "directory for job_id checkpoint journals (empty disables resume)")
		jobTimeout      = flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = derive per job from the cost model, capped at 15m; an explicit value caps the derived deadline)")
		minJobTimeout   = flag.Duration("min-job-timeout", 0, "floor of the derived per-job deadline (0 → 10s)")
		costModel       = flag.String("cost-model", "", "JSON ns-per-interaction grid overriding the baked-in cost model (popbench output)")
		costBudget      = flag.Duration("cost-budget", 0, "reject jobs whose predicted cost exceeds this with 413 (0 = no budget)")
		maxN            = flag.Int("max-n", 5_000_000, "largest accepted population size (must not exceed the workers' cap)")
		maxReplicas     = flag.Int("max-replicas", 1024, "largest accepted replica count (must not exceed the workers' cap)")
		storeDir        = flag.String("store", "", "directory for the content-addressed result store (empty disables caching)")
		storeMaxBytes   = flag.Int64("store-max-bytes", 0, "store size cap in bytes before LRU eviction (0 → 256 MiB, negative → unlimited)")
		storeMaxEnts    = flag.Int("store-max-entries", 0, "store entry cap before LRU eviction (0 → 4096)")
		maxSweepPoints  = flag.Int("max-sweep-points", 0, "largest accepted sweep grid expansion (0 → 1024)")
		drain           = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
		verbose         = flag.Bool("v", false, "log dispatch failures and worker transitions to stderr")
	)
	flag.Parse()
	if *shardSize < 0 || *clientRetries < 0 || *dispatchRetries < 1 || *maxN < 2 || *maxReplicas < 1 {
		fmt.Fprintln(os.Stderr, "popcoord: -shard-size and -client-retries must be ≥ 0, -dispatch-retries and -max-replicas ≥ 1, -max-n ≥ 2")
		return 2
	}

	cfg := cluster.Config{
		ShardSize:       *shardSize,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		ClientRetries:   *clientRetries,
		DispatchRetries: *dispatchRetries,
		JournalDir:      *journalDir,
		JobTimeout:      *jobTimeout,
		MinJobTimeout:   *minJobTimeout,
		CostModelPath:   *costModel,
		CostBudget:      *costBudget,
		MaxN:            *maxN,
		MaxReplicas:     *maxReplicas,
		StoreDir:        *storeDir,
		StoreMaxBytes:   *storeMaxBytes,
		StoreMaxEntries: *storeMaxEnts,
		MaxSweepPoints:  *maxSweepPoints,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.Workers = append(cfg.Workers, u)
		}
	}

	coord, err := cluster.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popcoord: %v\n", err)
		return 2
	}
	live := coord.Start()
	defer coord.Stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popcoord: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: coord.Handler()}

	// The scripts parse this line to discover the bound port.
	fmt.Fprintf(os.Stderr, "popcoord: listening on http://%s (workers=%d live=%d)\n",
		ln.Addr(), len(cfg.Workers), live)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "popcoord: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second ^C kills us

	fmt.Fprintf(os.Stderr, "popcoord: shutting down, draining in-flight jobs (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "popcoord: drain deadline exceeded: %v\n", err)
		hs.Close()
		code = 1
	}
	fmt.Fprintln(os.Stderr, "popcoord: drained, bye")
	return code
}
