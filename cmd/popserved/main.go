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
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"popkit/internal/fault"
	"popkit/internal/serve"
)

func main() { os.Exit(run()) }

// options is popserved's command line: the server's Config and the
// settings only the binary reads.
type options struct {
	serve.Config
	addr, tenantWeights, failpoints string
	drain                           time.Duration
	listFailpoints                  bool
}

// bind registers the command line's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&o.QueueDepth, "queue", 64, "job queue depth (full queue rejects with 429)")
	fs.IntVar(&o.Workers, "workers", runtime.GOMAXPROCS(0), "job slots, each running one replica at a time (idle slots help running jobs)")
	fs.StringVar(&o.tenantWeights, "tenant-weights", "", "comma-separated tenant=weight pairs for fair queueing, e.g. 'ci=1,research=4' (unlisted tenants weigh 1)")
	fs.IntVar(&o.MaxTenants, "max-tenants", 0, "max distinct tenants with queued jobs before new tenants get 429 (0 → 64)")
	fs.IntVar(&o.WhalePerTenant, "whale-per-tenant", 0, "concurrently running whale-class jobs per tenant (0 → 1)")
	fs.IntVar(&o.WhaleGlobal, "whale-global", 0, "concurrently running whale-class jobs, plus slots lent to them, overall (0 → workers−1, min 1)")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "graceful-shutdown drain deadline")
	fs.IntVar(&o.MaxRetries, "retries", 2, "re-runs per crashed replica before its failure reaches the stream")
	fs.BoolVar(&o.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (profiling; off by default)")
	fs.StringVar(&o.failpoints, "failpoints", "", "enable failpoints, e.g. 'serve/stream=panic(after=2,times=1)' (also: POPKIT_FAILPOINTS)")
	fs.BoolVar(&o.listFailpoints, "list-failpoints", false, "print the failpoint registry and exit")
	o.FrontFlags(fs)
}

func run() int {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if o.listFailpoints {
		for _, info := range fault.List() {
			fmt.Printf("%-16s %s\n", info.Name, info.Doc)
		}
		return 0
	}
	if o.QueueDepth < 1 || o.Workers < 1 || o.MaxN < 2 || o.MaxReplicas < 1 || o.MaxRetries < 0 ||
		o.MaxTenants < 0 || o.WhalePerTenant < 0 || o.WhaleGlobal < 0 {
		fmt.Fprintln(os.Stderr, "popserved: -queue, -workers, -max-replicas must be ≥ 1, -max-n ≥ 2, everything else ≥ 0")
		return 2
	}
	if err := fault.EnableFromEnv(); err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}
	if err := fault.Enable(o.failpoints); err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 1
	}
	if o.TenantWeights, err = parseTenantWeights(o.tenantWeights); err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		return 2
	}
	srv, err := serve.New(o.Config)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popserved: %v\n", err)
		if errors.Is(err, serve.ErrNegativeLimit) {
			return 2
		}
		return 1
	}

	// The scripts parse this line to discover the bound port.
	fmt.Fprintf(os.Stderr, "popserved: listening on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), o.Workers, o.QueueDepth)
	return serve.Serve("popserved", ln, srv.Handler(), o.drain, func() { srv.SetDraining(true) }, srv.Abort, srv.Close)
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
