// Command popsim runs one of the paper's protocols and reports its
// convergence, either under the framework's good-iteration semantics
// (default) or as a fully compiled flat protocol under the plain
// uniform-random scheduler (-compiled).
//
// Usage:
//
//	popsim -p leader      -n 4096
//	popsim -p majority    -n 4096 -gap 1
//	popsim -p leaderexact -n 1024
//	popsim -p majorityexact -n 1024 -gap 1
//	popsim -p plurality   -n 1200 -colours 3
//	popsim -p leader -n 600 -compiled
//	popsim -p leader -n 4096 -json
//	popsim -p leader -n 4096 -seed 7 -replicas 8 -ndjson
//	popsim -p exactmajority -n 100000 -gap 1 -ndjson
//	popsim -p gsexactmajority -n 100000 -gap 1 -ndjson
//	popsim -p gs18leader -n 4096 -ndjson
//	popsim -server http://127.0.0.1:8080 -sweep '{"base":{"protocol":"leader"},"grid":{"n":[1024,4096]}}'
//
// With -json the run summary is emitted as a single JSON object on stdout
// for scripting; diagnostics stay on stderr.
//
// With -ndjson the run goes through the protocol catalogue — the exact code
// popserved executes — and one NDJSON record per replica is streamed to
// stdout in replica order. The stream is byte-identical to a POST
// /v1/simulate response for the same (protocol, n, seed, replicas,
// parameters) spec, for any -workers count; -ndjson additionally unlocks
// the counted protocols: the baselines (approxmajority, exactmajority,
// coalescence) and the related-work library (gsexactmajority, aagmajority,
// gs18leader). SIGINT/SIGTERM cancel the sweep, flush the records already
// computed, and exit 130.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	popkit "popkit"
	"popkit/internal/bitmask"
	"popkit/internal/catalog"
	"popkit/internal/client"
	"popkit/internal/clock"
	"popkit/internal/expt"
	"popkit/internal/fault"
	"popkit/internal/obs"
)

// summary is the -json output document, shared by both execution paths.
type summary struct {
	Protocol   string           `json:"protocol"`
	N          int              `json:"n"`
	Seed       uint64           `json:"seed"`
	Compiled   bool             `json:"compiled"`
	Iterations int              `json:"iterations,omitempty"`
	Rounds     float64          `json:"rounds"`
	Converged  bool             `json:"converged"`
	Counts     map[string]int64 `json:"counts,omitempty"`
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "popsim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		proto     = flag.String("p", "leader", "protocol: leader | leaderexact | majority | majorityexact | plurality (with -ndjson: any registry protocol)")
		n         = flag.Int("n", 4096, "population size")
		gap       = flag.Int("gap", 1, "majority gap (#A − #B)")
		colours   = flag.Int("colours", 3, "plurality colour count")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		maxIters  = flag.Int("max-iters", 2000, "iteration budget")
		maxRounds = flag.Float64("max-rounds", 0, "round budget for counted protocols (-ndjson only; 0 = protocol default)")
		compiled  = flag.Bool("compiled", false, "run the compiled flat protocol (leader only; slow)")
		jsonOut   = flag.Bool("json", false, "emit the run summary as one JSON object")
		replicas  = flag.Int("replicas", 1, "independent replicas (requires -ndjson when > 1)")
		ndjson    = flag.Bool("ndjson", false, "stream one NDJSON record per replica (the popserved wire format)")
		workers   = flag.Int("workers", 1, "fleet workers for the -ndjson replica fan-out (does not change the output)")
		retries   = flag.Int("retries", 2, "re-runs per crashed replica (-ndjson local), or HTTP retries per request (-server)")
		server    = flag.String("server", "", "run the job on a popserved instance at this base URL instead of locally (requires -ndjson)")
		tenant    = flag.String("tenant", "", "tenant to bill server-side jobs to (X-Popkit-Tenant; requires -server)")
		jobID     = flag.String("job-id", "", "job id for server-side checkpoint/resume (requires -server and a journal-enabled popserved)")
		sweepJSON = flag.String("sweep", "", "POST this sweep grid spec (JSON) to the server's /v1/sweep and print the manifest (requires -server; ignores the per-job flags)")
		traceFile = flag.String("trace", "", "write an NDJSON event timeline of the run to FILE (local modes only; never changes the run's output)")
	)
	flag.Parse()

	if err := fault.EnableFromEnv(); err != nil {
		fail("%v", err)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *traceFile != "" && *server != "" {
		fail("-trace is local-only (the timeline lives in this process; -server runs elsewhere)")
	}
	trace, flushTrace := openTrace(*traceFile)

	if *tenant != "" && *server == "" {
		fail("-tenant needs -server (tenants exist in the server's fair queueing, not locally)")
	}

	if *sweepJSON != "" {
		if *server == "" {
			fail("-sweep needs -server (grids expand and dedupe server-side, against the server's result store)")
		}
		if *retries < 0 {
			fail("-retries must be ≥ 0 (got %d)", *retries)
		}
		os.Exit(runSweep(ctx, *sweepJSON, *server, *tenant, *retries))
	}

	if trace != nil {
		// Replica bodies attach the context-carried trace to their executor
		// or driver; tallies happen after every RNG draw, so the output is
		// byte-identical with or without it.
		ctx = obs.WithTrace(ctx, trace)
	}
	reg := catalog.NewRegistry()
	p, known := reg.Lookup(*proto)
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	spec := expt.JobSpec{
		Protocol:  *proto,
		N:         *n,
		Seed:      *seed,
		Replicas:  *replicas,
		MaxRounds: *maxRounds,
	}
	// Flags with non-zero defaults are forwarded only where the protocol
	// takes them, or, with -ndjson, where the user set them explicitly, so
	// the registry can report the mismatch.
	forward := func(param, name string) bool {
		return known && p.Takes(param) || *ndjson && set[name]
	}
	if forward("gap", "gap") {
		spec.Gap = *gap
	}
	if forward("colours", "colours") {
		spec.Colours = *colours
	}
	if forward("max_iters", "max-iters") {
		spec.MaxIters = *maxIters
	}

	if *ndjson {
		if *jsonOut {
			fail("-json and -ndjson are mutually exclusive")
		}
		if *compiled {
			fail("-compiled does not support -ndjson")
		}
		if *replicas < 1 {
			fail("-replicas must be ≥ 1 (got %d)", *replicas)
		}
		if *workers < 1 {
			fail("-workers must be ≥ 1 (got %d)", *workers)
		}
		if *retries < 0 {
			fail("-retries must be ≥ 0 (got %d)", *retries)
		}
		if *server != "" {
			spec.JobID = *jobID
			os.Exit(runRemote(ctx, spec, *server, *tenant, *retries))
		}
		if *jobID != "" {
			fail("-job-id needs -server (journals live on the popserved side)")
		}
		code := runNDJSON(ctx, reg, spec, *workers, *retries)
		flushTrace()
		os.Exit(code)
	}
	if *server != "" || *jobID != "" {
		fail("-server and -job-id need -ndjson (the wire format is per-replica records)")
	}
	if *replicas != 1 {
		fail("-replicas needs -ndjson (per-replica output has no single-summary form)")
	}

	// Validate every flag combination up front, before any work starts.
	if !known || p.Kind != "framework" {
		var names []string
		for _, q := range reg.List() {
			if q.Kind == "framework" {
				names = append(names, q.Name)
			}
		}
		fail("unknown protocol %q (want %s)", *proto, strings.Join(names, " | "))
	}
	if *compiled && *proto != "leader" {
		fail("-compiled supports only -p leader (got %q); the other protocols compile but are too slow to demonstrate here", *proto)
	}
	if *n < 2 {
		fail("-n must be ≥ 2 (got %d)", *n)
	}
	if *maxIters < 1 {
		fail("-max-iters must be ≥ 1 (got %d)", *maxIters)
	}
	if p.Takes("gap") && (*gap < 0 || *gap > *n) {
		fail("-gap must be in [0, n] (got %d with n=%d)", *gap, *n)
	}
	if p.Takes("colours") {
		if *colours < 2 {
			fail("-colours must be ≥ 2 (got %d)", *colours)
		}
		if *n < (*colours+1)*(*colours) {
			fail("-n too small for %d colours (need at least %d agents)", *colours, (*colours+1)*(*colours))
		}
	}

	if *compiled {
		runCompiled(ctx, *proto, *n, *seed, *jsonOut, trace, flushTrace)
		return
	}

	// The summary is one replica of the catalogue entry, seeded with -seed
	// itself. SIGINT/SIGTERM break out of the run; the summary computed so
	// far is still emitted before exiting 130.
	rec, err := p.Replica(ctx, spec, 0, *seed)
	interrupted := ctx.Err() != nil
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
	flushTrace()
	if *jsonOut {
		emit(summary{
			Protocol:   *proto,
			N:          *n,
			Seed:       *seed,
			Iterations: rec.Iterations,
			Rounds:     rec.Rounds,
			Converged:  rec.Converged,
			Counts:     rec.Counts,
		})
	} else {
		fmt.Print(p.Summary(spec, rec))
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "popsim: interrupted; partial summary flushed")
		os.Exit(130)
	}
	if !rec.Converged {
		os.Exit(1)
	}
}

// runNDJSON executes the spec through the protocol catalogue — the exact code
// popserved runs — streaming one NDJSON record per replica to stdout in
// replica order. Cancelling ctx (SIGINT/SIGTERM) aborts outstanding
// replicas, flushes what completed, and returns 130.
func runNDJSON(ctx context.Context, reg *catalog.Registry, spec expt.JobSpec, workers, retries int) int {
	p, err := reg.Normalize(&spec, math.MaxInt, 1<<20)
	if err != nil {
		fail("%v", err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	unconverged := 0
	runErr := p.Run(ctx, spec, catalog.RunOptions{Workers: workers, MaxRetries: retries}, func(rec expt.ReplicaRecord) {
		if rec.Err == "" && !rec.Converged {
			unconverged++
		}
		line, err := rec.MarshalLine()
		if err != nil {
			return
		}
		out.Write(line)
		out.Flush() // line-wise, so an interrupt loses nothing already done
	})
	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "popsim: interrupted; partial records flushed")
		return 130
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "popsim: %v\n", runErr)
		return 1
	case unconverged > 0:
		fmt.Fprintf(os.Stderr, "popsim: %d replica(s) did not converge within budget\n", unconverged)
		return 1
	}
	return 0
}

// runRemote streams the spec from a popserved instance through the retrying
// client: backpressure (429), busy job ids (409), transient errors, and
// mid-stream disconnects are retried with backoff, and on reconnect the
// stream resumes after the last delivered replica — stdout stays
// byte-identical to a local -ndjson run of the same spec.
func runRemote(ctx context.Context, spec expt.JobSpec, base, tenant string, retries int) int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	cl := client.New(client.Options{
		BaseURL:    base,
		Tenant:     tenant,
		MaxRetries: retries,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "popsim: "+format+"\n", args...)
		},
	})
	unconverged := 0
	err := cl.Stream(ctx, spec, func(rec expt.ReplicaRecord, line []byte) {
		if !rec.Converged {
			unconverged++
		}
		out.Write(line)
		out.Flush() // line-wise, so an interrupt loses nothing already done
	})
	if st := cl.LastCacheStatus(); st != "" {
		fmt.Fprintf(os.Stderr, "popsim: server cache: %s\n", st)
	}
	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "popsim: interrupted; partial records flushed")
		return 130
	case err != nil:
		fmt.Fprintf(os.Stderr, "popsim: %v\n", err)
		return 1
	case unconverged > 0:
		fmt.Fprintf(os.Stderr, "popsim: %d replica(s) did not converge within budget\n", unconverged)
		return 1
	}
	return 0
}

// runSweep posts a parameter-grid spec to the server's /v1/sweep, printing
// one manifest line per grid point to stdout (the exact server bytes) and
// the closing hit/miss summary to stderr.
func runSweep(ctx context.Context, specJSON, base, tenant string, retries int) int {
	var sw expt.SweepSpec
	dec := json.NewDecoder(strings.NewReader(specJSON))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		fail("bad -sweep spec: %v", err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	cl := client.New(client.Options{
		BaseURL:    base,
		Tenant:     tenant,
		MaxRetries: retries,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "popsim: "+format+"\n", args...)
		},
	})
	errors := 0
	sum, err := cl.Sweep(ctx, sw, func(res expt.SweepResult, line []byte) {
		if res.Err != "" {
			errors++
		}
		out.Write(line)
		out.Flush()
	})
	switch {
	case ctx.Err() != nil:
		fmt.Fprintln(os.Stderr, "popsim: interrupted; partial manifest flushed")
		return 130
	case err != nil:
		fmt.Fprintf(os.Stderr, "popsim: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "popsim: sweep done: %d point(s), %d hit, %d miss, %d inflight, %d error\n",
		sum.Points, sum.Hits, sum.Misses, sum.Inflight, sum.Errors)
	if errors > 0 {
		return 1
	}
	return 0
}

// openTrace builds the -trace timeline: a bounded obs ring buffer plus a
// flush function that writes it to path as NDJSON. A "" path returns a nil
// trace (every layer treats that as tracing-off) and a no-op flush.
func openTrace(path string) (*obs.Trace, func()) {
	if path == "" {
		return nil, func() {}
	}
	tr := obs.NewTrace(obs.DefaultTraceCap)
	return tr, func() {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popsim: trace: %v\n", err)
			return
		}
		defer f.Close()
		if err := tr.WriteNDJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "popsim: trace: %v\n", err)
		}
	}
}

func emit(s summary) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
}

func runCompiled(ctx context.Context, proto string, n int, seed uint64, jsonOut bool, trace *obs.Trace, flushTrace func()) {
	c, err := popkit.CompileProgram(popkit.LeaderElection(), popkit.CompileOptions{Control: popkit.XPreReduced})
	if err != nil {
		fmt.Fprintln(os.Stderr, "popsim:", err)
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Println(c.Describe())
	}
	rng := popkit.NewRNG(seed)
	pop := c.NewPopulation(n, rng)
	eng := popkit.NewEngine(c.Rules)
	r := popkit.NewScheduler(eng, pop, rng)
	if trace != nil {
		r.Stats = obs.NewRuleStats(eng.NumRules())
	}
	lv, _ := c.Space.LookupVar("L")
	tr := r.Track("L", bitmask.Is(lv))
	// Phase probes emit a "phase-tick" event whenever a hierarchy clock's
	// dominant phase moves, sampled at most once per parallel round. They
	// only read the population, never the RNG, so the run is unchanged.
	var probes []*clock.PhaseProbe
	for j, b := range c.Hierarchy.Clocks {
		if p := clock.NewPhaseProbe(b, j+1, 0, trace); p != nil {
			probes = append(probes, p)
		}
	}
	nextSample := 0.0
	budget := 60.0 * float64(c.M) * 60 * math.Log(float64(n))
	rounds, ok := r.RunUntil(func(*popkit.Scheduler) bool {
		if len(probes) > 0 {
			if rt := r.Rounds(); rt >= nextSample {
				nextSample = math.Floor(rt) + 1
				for _, p := range probes {
					p.Sample(pop, rt)
				}
			}
		}
		return ctx.Err() != nil || tr.Count() == 1
	}, 25, budget)
	interrupted := ctx.Err() != nil
	if interrupted {
		ok = tr.Count() == 1
	}
	if trace != nil {
		// Per-rule-group firing tallies, one closing event per group in
		// name order, so the timeline ends with a firing census.
		tally := eng.GroupTally(r.Stats.Fired())
		names := make([]string, 0, len(tally))
		for name := range tally {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			trace.Emit(obs.Event{Kind: "rule-group", Rounds: rounds, Name: name, Value: int64(tally[name])})
		}
		flushTrace()
	}
	if jsonOut {
		emit(summary{
			Protocol:  proto,
			N:         n,
			Seed:      seed,
			Compiled:  true,
			Rounds:    rounds,
			Converged: ok,
			Counts:    map[string]int64{"L": tr.Count()},
		})
	} else {
		fmt.Printf("compiled run: leaders=%d rounds=%.0f converged=%v\n", tr.Count(), rounds, ok)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "popsim: interrupted; partial summary flushed")
		os.Exit(130)
	}
	if !ok {
		os.Exit(1)
	}
}
