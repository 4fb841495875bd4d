// Command popbench regenerates the reproduction experiments of
// EXPERIMENTS.md: every table and figure series indexed in DESIGN.md.
//
// Usage:
//
//	popbench [-e E1,E3,F2] [-seeds N] [-workers N] [-quick] [-out DIR] [-list]
//	popbench -kernel [-quick] [-out DIR]
//
// Without -e it runs every experiment in order. Tables are printed as
// Markdown to stdout; figure CSVs and the machine-readable run record
// BENCH_results.json are written into -out (default "."). Multi-seed
// experiments fan their replicas out across -workers fleet workers
// (default: one per CPU); per-replica RNG streams make the output
// byte-identical for any worker count.
//
// -kernel skips the experiments and instead measures the raw simulation
// kernels (dense / batch / aggregate) on the E11 exact-majority workload,
// writing BENCH_kernel.json into -out.
//
// -compare runs the related-work protocol library (gs18leader,
// gsexactmajority, aagmajority) head-to-head against the incumbent leader
// and exact-majority entries across an n-grid, recording rounds,
// interactions, state counts and empirical correctness into the "compare"
// section of BENCH_results.json.
//
// -cpuprofile, -memprofile and -trace capture pprof/trace artifacts of
// whichever mode ran, for chasing kernel regressions:
//
//	popbench -e E11 -cpuprofile cpu.out && go tool pprof cpu.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"syscall"
	"time"

	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/obs"
	"popkit/internal/stats"
)

// benchRecord is one experiment's entry in BENCH_results.json. Each record
// carries the run configuration that produced it, because a run replaces
// only the records of the experiments it ran (mergeExperiments).
type benchRecord struct {
	ID       string  `json:"id"`
	Claim    string  `json:"claim"`
	Seeds    int     `json:"seeds"`
	Quick    bool    `json:"quick"`
	BaseSeed uint64  `json:"base_seed"`
	WallMS   float64 `json:"wall_ms"`
	// Interactions counts simulated scheduler activations (including ones
	// the counted kernels leapt over); NsPerInteraction = wall time divided
	// by it, the headline throughput number for kernel comparisons.
	Interactions     uint64         `json:"interactions,omitempty"`
	NsPerInteraction float64        `json:"ns_per_interaction,omitempty"`
	Tables           []*stats.Table `json:"tables"`
	Figures          []string       `json:"figures,omitempty"`
}

// benchFile is the top-level BENCH_results.json document. Its config block
// describes the last experiment run; each record carries its own.
type benchFile struct {
	Seeds    int     `json:"seeds"`
	Quick    bool    `json:"quick"`
	BaseSeed uint64  `json:"base_seed"`
	Workers  int     `json:"workers"`
	WallMS   float64 `json:"wall_ms"`
	// Interrupted marks a run cut short by SIGINT/SIGTERM: the experiments
	// it did not finish keep the records earlier runs left, if any.
	Interrupted bool `json:"interrupted,omitempty"`
	// ReplicaLatency summarizes per-replica wall-clock time across every
	// experiment of the last run (count, mean, p50/p90/p95/p99, µs
	// buckets) — the latency distribution behind the throughput numbers.
	ReplicaLatency obs.HistogramSnapshot `json:"replica_latency"`
	// Experiments holds one record per experiment id, in expt.All() order.
	Experiments []json.RawMessage `json:"experiments"`
	// QoS carries the cost-model calibration block a prior `popbench -qos`
	// run left in the file; a full experiment run preserves it verbatim.
	QoS json.RawMessage `json:"qos,omitempty"`
	// Compare likewise preserves a prior `popbench -compare` head-to-head
	// grid across full experiment runs.
	Compare json.RawMessage `json:"compare,omitempty"`
}

func main() { os.Exit(run()) }

// run carries the whole program so the profiling defers fire before exit.
func run() int {
	var (
		only       = flag.String("e", "", "comma-separated experiment IDs (default: all)")
		seeds      = flag.Int("seeds", 10, "runs per configuration point")
		quick      = flag.Bool("quick", false, "smallest configurations only")
		out        = flag.String("out", ".", "directory for figure CSV files and BENCH_results.json")
		list       = flag.Bool("list", false, "list experiments and exit")
		seed       = flag.Uint64("seed", 0, "base RNG seed")
		workers    = flag.Int("workers", runtime.NumCPU(), "fleet workers for multi-seed sweeps")
		replicaLog = flag.String("replica-log", "", "stream per-replica results to this JSONL file")
		noProgress = flag.Bool("no-progress", false, "suppress fleet progress reports on stderr")
		kernel     = flag.Bool("kernel", false, "measure the raw simulation kernels into BENCH_kernel.json and exit")
		qosFlag    = flag.Bool("qos", false, "measure cost-model prediction error per size class into BENCH_results.json and exit")
		compare    = flag.Bool("compare", false, "run the related-work head-to-head grid into BENCH_results.json and exit")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		traceOut   = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Claim)
		}
		return 0
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			return 1
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			}
		}()
	}
	if *kernel {
		return runKernel(*out, *quick)
	}
	if *qosFlag {
		// A BENCH_kernel.json sitting next to the output (e.g. -out results)
		// overrides the baked-in grid, exactly as -cost-model does on the
		// servers; a missing file silently keeps the defaults.
		return runQoS(*out, *quick, *workers, filepath.Join(*out, "BENCH_kernel.json"))
	}
	if *compare {
		return runCompare(*out, *quick, *workers, *seed)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "popbench: -workers must be ≥ 1 (got %d)\n", *workers)
		return 2
	}
	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "popbench: -seeds must be ≥ 1 (got %d)\n", *seeds)
		return 2
	}

	var wanted []expt.Experiment
	if *only == "" {
		wanted = expt.All()
	} else {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			e, ok := expt.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "popbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			wanted = append(wanted, e)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := expt.Config{Seeds: *seeds, Quick: *quick, BaseSeed: *seed, Workers: *workers, Ctx: ctx}
	if !*noProgress {
		cfg.Progress = os.Stderr
	}
	// Every replica's wall-clock time feeds one latency histogram, so
	// BENCH_results.json carries the latency distribution behind the
	// throughput numbers. Observing Elapsed reads the already-computed
	// result and cannot change any replica's output.
	replicaHist := &obs.Histogram{}
	var replicaSink fleet.ResultSink = fleet.SinkFunc(func(r fleet.Result) {
		replicaHist.Observe(r.Elapsed)
	})
	if *replicaLog != "" {
		f, err := os.Create(*replicaLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
			return 1
		}
		defer f.Close()
		replicaSink = fleet.MultiSink{fleet.NewJSONLSink(f), replicaSink}
	}
	cfg.ReplicaSink = replicaSink

	bench := benchFile{Seeds: *seeds, Quick: *quick, BaseSeed: *seed, Workers: *workers}
	begin := time.Now()
	recs, interrupted, exitCode := runExperiments(ctx, wanted, cfg, *out, os.Stdout)
	bench.Interrupted = interrupted
	bench.WallMS = float64(time.Since(begin).Microseconds()) / 1000
	bench.ReplicaLatency = replicaHist.Snapshot()

	benchPath := filepath.Join(*out, "BENCH_results.json")
	if err := writeBench(benchPath, bench, recs); err != nil {
		fmt.Fprintf(os.Stderr, "popbench: %v\n", err)
		exitCode = 1
	} else {
		fmt.Fprintf(os.Stderr, "popbench: wrote %s\n", benchPath)
	}
	if bench.Interrupted {
		fmt.Fprintln(os.Stderr, "popbench: interrupted; partial results flushed")
		return 130
	}
	return exitCode
}

// runExperiments runs the wanted experiments in order, printing each one's
// heading, tables and footer to stdout and writing its figure CSVs into
// out. It stops before the next experiment once ctx is cancelled, and
// reports that as interrupted; an experiment cut short mid-run gets one
// line under its heading saying so, and no record.
func runExperiments(ctx context.Context, wanted []expt.Experiment, cfg expt.Config, out string, stdout io.Writer) (recs []benchRecord, interrupted bool, exitCode int) {
	for _, e := range wanted {
		if ctx.Err() != nil {
			return recs, true, exitCode
		}
		fmt.Fprintf(stdout, "## %s — %s\n\n", e.ID, e.Claim)
		start := time.Now()
		res, err := runExperiment(ctx, e, cfg)
		if err != nil {
			// Interrupted mid-experiment: drop this experiment's partial
			// output but still flush everything that completed before it.
			fmt.Fprintf(stdout, "_%s interrupted (%v); no table written_\n\n", e.ID, ctx.Err())
			fmt.Fprintf(os.Stderr, "popbench: %s %v\n", e.ID, err)
			return recs, true, exitCode
		}
		elapsed := time.Since(start)
		for _, tb := range res.Tables {
			fmt.Fprintln(stdout, tb.Markdown())
		}
		rec := benchRecord{
			ID:           e.ID,
			Claim:        e.Claim,
			Seeds:        cfg.Seeds,
			Quick:        cfg.Quick,
			BaseSeed:     cfg.BaseSeed,
			WallMS:       float64(elapsed.Microseconds()) / 1000,
			Interactions: res.Interactions,
			Tables:       res.Tables,
		}
		if res.Interactions > 0 {
			rec.NsPerInteraction = float64(elapsed.Nanoseconds()) / float64(res.Interactions)
		}
		figNames := make([]string, 0, len(res.Figures))
		for name := range res.Figures {
			figNames = append(figNames, name)
		}
		sort.Strings(figNames) // stable order keeps BENCH_results.json diffable
		for _, name := range figNames {
			csv := res.Figures[name]
			path := filepath.Join(out, name)
			if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "popbench: writing %s: %v\n", path, err)
				exitCode = 1
				continue
			}
			rec.Figures = append(rec.Figures, name)
			fmt.Fprintf(stdout, "wrote %s (%d bytes)\n\n", path, len(csv))
		}
		recs = append(recs, rec)
		fmt.Fprintf(stdout, "_%s completed in %s_\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	return recs, false, exitCode
}

// writeBench writes bench to path. It carries over the qos and compare
// sections of an earlier `popbench -qos` or `-compare` run, and merges the
// experiments section: the records of fresh replace those with the same id,
// and every other record an earlier run left stays as it was.
func writeBench(path string, bench benchFile, fresh []benchRecord) error {
	var prior struct {
		QoS         json.RawMessage   `json:"qos"`
		Compare     json.RawMessage   `json:"compare"`
		Experiments []json.RawMessage `json:"experiments"`
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &prior); err != nil {
			return fmt.Errorf("existing %s is not JSON (%v); refusing to overwrite", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	bench.QoS, bench.Compare = prior.QoS, prior.Compare
	var err error
	if bench.Experiments, err = mergeExperiments(prior.Experiments, fresh); err != nil {
		return fmt.Errorf("merging %s: %w", path, err)
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// mergeExperiments returns one record per experiment id in expt.All()
// order: fresh's record where it has one, else prior's, kept as it was.
// A prior record whose id expt.All() no longer lists is dropped.
func mergeExperiments(prior []json.RawMessage, fresh []benchRecord) ([]json.RawMessage, error) {
	byID := map[string]json.RawMessage{}
	for _, raw := range prior {
		var rec struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("experiment record: %w", err)
		}
		byID[rec.ID] = raw
	}
	for _, rec := range fresh {
		raw, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		byID[rec.ID] = raw
	}
	var merged []json.RawMessage
	for _, e := range expt.All() {
		if raw, ok := byID[e.ID]; ok {
			merged = append(merged, raw)
		}
	}
	return merged, nil
}

// runExperiment runs one experiment, converting the panic replicate raises
// when the fleet context is cancelled back into an error so an interrupt
// flushes the completed experiments instead of crashing. Panics unrelated
// to cancellation propagate unchanged.
func runExperiment(ctx context.Context, e expt.Experiment, cfg expt.Config) (res expt.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ctx.Err() != nil {
				err = fmt.Errorf("interrupted: %v", ctx.Err())
				return
			}
			panic(r)
		}
	}()
	return e.Run(cfg), nil
}
