package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The request caps' defaults, for a zero Config field and for the flags.
const defaultMaxN, defaultMaxReplicas = 5_000_000, 1024

// FrontFlags binds the front settings that popserved and popcoord both
// take on their command lines to fs, each flag straight onto its field.
func (c *Config) FrontFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.JournalDir, "journal", "", "directory for job_id checkpoint journals (empty disables resume)")
	fs.DurationVar(&c.JobTimeout, "job-timeout", 0, "per-job wall-clock cap (0 = derive per job from the cost model, capped at 15m; an explicit value caps the derived deadline)")
	fs.DurationVar(&c.MinJobTimeout, "min-job-timeout", 0, "floor of the derived per-job deadline (0 → 10s)")
	fs.StringVar(&c.CostModelPath, "cost-model", "", "JSON ns-per-interaction grid overriding the baked-in cost model (popbench output)")
	fs.DurationVar(&c.CostBudget, "cost-budget", 0, "reject jobs whose predicted cost exceeds this with 413 (0 = no budget)")
	fs.IntVar(&c.MaxN, "max-n", defaultMaxN, "largest accepted population size")
	fs.IntVar(&c.MaxReplicas, "max-replicas", defaultMaxReplicas, "largest accepted replica count")
	fs.StringVar(&c.StoreDir, "store", "", "directory for the content-addressed result store (empty disables caching)")
	fs.Int64Var(&c.StoreMaxBytes, "store-max-bytes", 0, "store size cap in bytes before LRU eviction (0 → 256 MiB, negative → unlimited)")
	fs.IntVar(&c.StoreMaxEntries, "store-max-entries", 0, "store entry cap before LRU eviction (0 → 4096)")
	fs.IntVar(&c.MaxSweepPoints, "max-sweep-points", 0, "largest accepted sweep grid expansion (0 → 1024)")
}

// Serve runs a binary's HTTP server: it serves h on ln until SIGINT or
// SIGTERM, shuts down gracefully and returns the exit code. name starts
// every line it writes to stderr. The hooks may be nil. draining runs
// before the listener closes; if in-flight requests outlast drain,
// abort runs and their connections are closed; finish runs last, before
// "drained, bye". If serving fails, abort and finish run and the code is
// 1; otherwise it is 0 after a clean drain and 1 after a blown deadline.
func Serve(name string, ln net.Listener, h http.Handler, drain time.Duration, draining, abort, finish func()) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // restore default signal behaviour: a second ^C kills us
	return serve(ctx, name, ln, h, drain, draining, abort, finish)
}

// serve is Serve with the shutdown starting when ctx ends.
func serve(ctx context.Context, name string, ln net.Listener, h http.Handler, drain time.Duration, draining, abort, finish func()) int {
	run := func(hook func()) {
		if hook != nil {
			hook()
		}
	}
	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		run(abort)
		run(finish)
		return 1
	case <-ctx.Done():
	}

	run(draining) // before the listener closes (see Server.SetDraining)
	fmt.Fprintf(os.Stderr, "%s: shutting down, draining in-flight jobs (deadline %s)\n", name, drain)
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	code := 0
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "%s: drain deadline exceeded, aborting in-flight jobs: %v\n", name, err)
		run(abort)
		hs.Close()
		code = 1
	}
	run(finish)
	fmt.Fprintf(os.Stderr, "%s: drained, bye\n", name)
	return code
}
