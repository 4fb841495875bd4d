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
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"popkit/internal/cluster"
	"popkit/internal/serve"
)

func main() { os.Exit(run()) }

// options is popcoord's command line: the coordinator's Config and the
// settings only the binary reads.
type options struct {
	cluster.Config
	addr, workerURLs string
	drain            time.Duration
	verbose          bool
}

// bind registers the command line's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&o.workerURLs, "workers", "", "comma-separated popserved base URLs (e.g. http://127.0.0.1:8080)")
	fs.IntVar(&o.ShardSize, "shard-size", 0, "max replicas per shard (0 = auto: ~2 shards per live worker)")
	fs.DurationVar(&o.ProbeInterval, "probe-interval", time.Second, "worker health-check period")
	fs.DurationVar(&o.ProbeTimeout, "probe-timeout", 500*time.Millisecond, "per-probe timeout")
	fs.IntVar(&o.ClientRetries, "client-retries", 2, "streaming-client retries per dispatch before failing over")
	fs.IntVar(&o.DispatchRetries, "dispatch-retries", 4, "consecutive no-progress dispatches before a shard fails")
	fs.DurationVar(&o.drain, "drain", 15*time.Second, "graceful-shutdown drain deadline")
	fs.BoolVar(&o.verbose, "v", false, "log dispatch failures and worker transitions to stderr")
	o.Front.FrontFlags(fs)
	for _, name := range []string{"max-n", "max-replicas"} {
		fs.Lookup(name).Usage += " (must not exceed the workers' cap)"
	}
}

func run() int {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if o.ShardSize < 0 || o.ClientRetries < 0 || o.DispatchRetries < 1 || o.Front.MaxN < 2 || o.Front.MaxReplicas < 1 {
		fmt.Fprintln(os.Stderr, "popcoord: -shard-size and -client-retries must be ≥ 0, -dispatch-retries and -max-replicas ≥ 1, -max-n ≥ 2")
		return 2
	}
	if o.verbose {
		o.Logf = log.New(os.Stderr, "", 0).Printf
	}
	for _, u := range strings.Split(o.workerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			o.Workers = append(o.Workers, u)
		}
	}

	coord, err := cluster.New(o.Config)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popcoord: %v\n", err)
		return 2
	}
	live := coord.Start()
	defer coord.Stop()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "popcoord: %v\n", err)
		return 1
	}

	// The scripts parse this line to discover the bound port.
	fmt.Fprintf(os.Stderr, "popcoord: listening on http://%s (workers=%d live=%d)\n",
		ln.Addr(), len(o.Workers), live)
	return serve.Serve("popcoord", ln, coord.Handler(), o.drain, nil, nil, nil)
}
