// Command popserved serves population-protocol simulation jobs over HTTP:
// clients POST a job spec (protocol, n, seed, replicas, parameters) and
// receive the per-replica results streamed back as NDJSON while a worker
// pool computes them on the replica fleet.
//
// Usage:
//
//	popserved [-addr HOST:PORT] [-queue N] [-workers N] [-job-timeout D]
//	          [-min-job-timeout D] [-drain D] [-max-n N]
//	          [-max-replicas N] [-journal DIR] [-retries N] [-store DIR]
//	          [-store-max-bytes N] [-store-max-entries N] [-max-sweep-points N]
//	          [-cost-model FILE] [-cost-budget D] [-tenant-weights T=W,...]
//	          [-max-tenants N] [-whale-per-tenant N] [-whale-global N]
//	          [-failpoints SPEC] [-list-failpoints]
//
// Admission control and QoS: every job's cost is predicted from a
// ns-per-interaction model before it enters the queue. Requests carry an
// optional X-Popkit-Tenant header; queued jobs are dispatched by per-tenant
// deficit-round-robin (weights via -tenant-weights) with strict priority of
// interactive over batch over whale size classes, so small jobs never wait
// behind huge ones. -cost-budget rejects predictably hopeless jobs with a
// structured 413; per-job deadlines derive from the prediction unless
// -job-timeout pins a cap. Scheduling never changes output bytes.
//
// -workers sets the job slots, each running one replica at a time. A slot
// with no dispatchable queued job runs unclaimed replicas of the oldest
// running job, one at a time, so a lone multi-replica job still uses every
// core and a newly queued job waits at most one replica for a slot.
//
// With -journal DIR, jobs that carry a job_id checkpoint each completed
// replica to DIR/<job_id>.ndjson; re-POSTing the same (job_id, spec) —
// e.g. after a crash of either side — replays the journaled prefix and
// computes only the rest, byte-identical to an uninterrupted run.
//
// -retries re-runs replicas that panic (or hit an injected fault) from
// their own deterministic seed. -failpoints enables named fault-injection
// points (also via POPKIT_FAILPOINTS); -list-failpoints prints the
// registry and exits.
//
// With -store DIR, completed cacheable jobs are committed to a
// content-addressed result store under DIR and repeat POSTs of the same
// normalized spec stream the stored bytes back without touching the worker
// pool (X-Popkit-Cache: hit). The store also backs POST /v1/sweep, which
// expands a parameter grid server-side and runs only the uncached points.
//
// Endpoints:
//
//	POST /v1/simulate   run a job, stream NDJSON records (429 when the
//	                    queue is full, 503 while draining; client
//	                    disconnect cancels the job)
//	POST /v1/sweep      expand a parameter grid, dedupe against the result
//	                    store and in-flight jobs, stream one manifest line
//	                    per point plus a summary
//	GET  /v1/protocols  list runnable protocols
//	GET  /healthz       cheap liveness + queue depth; bypasses the job
//	                    queue entirely, and reports "draining" with 503
//	                    once shutdown begins (cluster health probes)
//	GET  /metrics       JSON counters and latency histograms
//	GET  /metrics?format=prom   the same registry in Prometheus text format
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
//
// Determinism survives the network boundary: the same (protocol, n, seed,
// replicas) spec returns byte-identical records to `popsim -ndjson`, which
// runs the same registry code in-process.
//
// SIGINT/SIGTERM trigger a graceful shutdown: intake stops, in-flight jobs
// drain under the -drain deadline, then stragglers are aborted.
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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"popkit/internal/fault"
	"popkit/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		queue          = flag.Int("queue", 64, "job queue depth (full queue rejects with 429)")
		workers        = flag.Int("workers", runtime.GOMAXPROCS(0), "job slots, each running one replica at a time (idle slots help running jobs)")
		jobTimeout     = flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = derive per job from the cost model, capped at 15m; an explicit value caps the derived deadline)")
		minJobTimeout  = flag.Duration("min-job-timeout", 0, "floor of the derived per-job deadline (0 → 10s)")
		costModel      = flag.String("cost-model", "", "JSON ns-per-interaction grid overriding the baked-in cost model (popbench output)")
		costBudget     = flag.Duration("cost-budget", 0, "reject jobs whose predicted cost exceeds this with 413 (0 = no budget)")
		tenantWeights  = flag.String("tenant-weights", "", "comma-separated tenant=weight pairs for fair queueing, e.g. 'ci=1,research=4' (unlisted tenants weigh 1)")
		maxTenants     = flag.Int("max-tenants", 0, "max distinct tenants with queued jobs before new tenants get 429 (0 → 64)")
		whalePerTenant = flag.Int("whale-per-tenant", 0, "concurrently running whale-class jobs per tenant (0 → 1)")
		whaleGlobal    = flag.Int("whale-global", 0, "concurrently running whale-class jobs, plus slots lent to them, overall (0 → workers−1, min 1)")
		drain          = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline")
		maxN           = flag.Int("max-n", 5_000_000, "largest accepted population size")
		maxReplicas    = flag.Int("max-replicas", 1024, "largest accepted replica count")
		journalDir     = flag.String("journal", "", "directory for job_id checkpoint journals (empty disables resume)")
		retries        = flag.Int("retries", 2, "re-runs per crashed replica before its failure reaches the stream")
		storeDir       = flag.String("store", "", "directory for the content-addressed result store (empty disables caching)")
		storeMaxBytes  = flag.Int64("store-max-bytes", 0, "store size cap in bytes before LRU eviction (0 → 256 MiB, negative → unlimited)")
		storeMaxEnts   = flag.Int("store-max-entries", 0, "store entry cap before LRU eviction (0 → 4096)")
		maxSweepPoints = flag.Int("max-sweep-points", 0, "largest accepted sweep grid expansion (0 → 1024)")
		pprofFlag      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling; off by default)")
		failpoints     = flag.String("failpoints", "", "enable failpoints, e.g. 'serve/stream=panic(after=2,times=1)' (also: POPKIT_FAILPOINTS)")
		listFailpoints = flag.Bool("list-failpoints", false, "print the failpoint registry and exit")
	)
	flag.Parse()
	if *listFailpoints {
		for _, info := range fault.List() {
			fmt.Printf("%-16s %s\n", info.Name, info.Doc)
		}
		return 0
	}
	if *queue < 1 || *workers < 1 || *maxN < 2 || *maxReplicas < 1 || *retries < 0 ||
		*maxTenants < 0 || *whalePerTenant < 0 || *whaleGlobal < 0 {
		fmt.Fprintln(os.Stderr, "popserved: -queue, -workers, -max-replicas must be ≥ 1, -max-n ≥ 2, everything else ≥ 0")
		return 2
	}
	if err := fault.EnableFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}
	if *failpoints != "" {
		if err := fault.Enable(*failpoints); err != nil {
			fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
			return 2
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 1
	}
	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}
	srv, err := serve.New(serve.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		MaxRetries:      *retries,
		JournalDir:      *journalDir,
		JobTimeout:      *jobTimeout,
		MinJobTimeout:   *minJobTimeout,
		CostModelPath:   *costModel,
		CostBudget:      *costBudget,
		TenantWeights:   weights,
		MaxTenants:      *maxTenants,
		WhalePerTenant:  *whalePerTenant,
		WhaleGlobal:     *whaleGlobal,
		MaxN:            *maxN,
		MaxReplicas:     *maxReplicas,
		EnablePprof:     *pprofFlag,
		StoreDir:        *storeDir,
		StoreMaxBytes:   *storeMaxBytes,
		StoreMaxEntries: *storeMaxEnts,
		MaxSweepPoints:  *maxSweepPoints,
	})
	if errors.Is(err, serve.ErrNegativeLimit) {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The scripts parse this line to discover the bound port.
	fmt.Fprintf(os.Stderr, "popserved: listening on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), *workers, *queue)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		srv.Abort()
		srv.Close()
		return 1
	case <-ctx.Done():
	}
	stop() // restore default signal behaviour: a second ^C kills us

	// Flip to draining before the listener closes: while the drain runs,
	// new simulate requests get a retryable 503 + Retry-After and /healthz
	// answers "draining", so cluster coordinators stop routing shards here
	// and fail over instead of erroring.
	srv.SetDraining(true)
	fmt.Fprintf(os.Stderr, "popserved: shutting down, draining in-flight jobs (deadline %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "popserved: drain deadline exceeded, aborting in-flight jobs: %v\n", err)
		srv.Abort()
		hs.Close()
		code = 1
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "popserved: drained, bye")
	return code
}

// parseTenantWeights parses "a=3,b=1" into the fair-queueing weight map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if !ok || name == "" || err != nil || w < 1 {
			return nil, fmt.Errorf("bad -tenant-weights entry %q: want tenant=weight with weight ≥ 1", pair)
		}
		out[strings.TrimSpace(name)] = w
	}
	return out, nil
}
