// Package fleet fans independent simulation replicas out across a pool of
// workers. The experiment harness is dominated by Monte-Carlo sweeps —
// dozens of (protocol, n, seed) replicas that share nothing but read-only
// compiled protocols — so the package's contract is determinism by
// construction: every replica derives all of its randomness from its own
// seed (see engine.SplitSeed), results are returned in job order, and a
// sweep therefore produces byte-identical output for any worker count,
// including the sequential loop it replaces.
//
// The executor is a bounded pool over one shared cursor: each worker claims
// the lowest unclaimed replica, so replicas start in ID order and an ordered
// sink holds only the results that overtook a slower replica. Replicas that
// panic are captured and reported as error results instead of killing the
// sweep; context cancellation marks the affected results with its error.
// With Options.MaxRetries set, a panicking (or fault-injected) replica is
// re-executed from its own seed — because every attempt restarts the
// replica's entire RNG stream, a recovered replica's value is
// byte-identical to one that never crashed.
//
// RunOne is the single-replica executor under Run: panic capture and the
// retry budget, with no pool around it. popserved's job pool schedules a
// served job's replicas itself and runs each one through it.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"popkit/internal/engine"
	"popkit/internal/fault"
)

// fpReplica injects into replica execution, inside the panic-capture
// goroutine and before the body runs: panic exercises the retry path the
// same way a crashing body would, error/cancel surface as the replica's
// result, sleep perturbs scheduling.
var fpReplica = fault.New("fleet/replica",
	"fires in the replica goroutine before the body runs (panic is retried under MaxRetries)")

// Job is one independent replica of a sweep.
type Job struct {
	// ID is the replica index; Run's result lands at this position of the
	// slice returned by Run (jobs are addressed by position, so IDs are
	// informational and normally equal the position).
	ID int
	// Tag labels the configuration point (e.g. "E3/n=20000") for sinks and
	// aggregation.
	Tag string
	// Seed is the replica's RNG seed. The executor hands Run an
	// engine.RNG seeded with it; bodies that build their own generators
	// (or pass the seed to frame.New) should derive them from this value
	// only, so the trajectory is independent of scheduling.
	Seed uint64
	// Run computes the replica. Its value is opaque to the executor.
	Run func(ctx context.Context, rng *engine.RNG) (any, error)
}

// Result is the outcome of one replica.
type Result struct {
	ID      int
	Tag     string
	Seed    uint64
	Value   any
	Err     error
	Elapsed time.Duration
	// Worker is the index of the worker that ran the replica. It depends
	// on scheduling — reproducible output must not consume it.
	Worker int
	// Attempts is the number of executions the replica took (1 plus the
	// retries consumed). Like Worker it is diagnostic: reproducible output
	// must not consume it, since fault triggers may be probabilistic.
	Attempts int
}

// PanicError reports a replica that panicked; the sweep continues.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("replica panicked: %v\n%s", e.Value, e.Stack)
}

// Options configures a sweep.
type Options struct {
	// Workers is the pool size; values < 1 mean runtime.GOMAXPROCS(0).
	Workers int
	// Sink, when non-nil, receives every result as it completes. It is
	// called concurrently from worker goroutines; implementations must be
	// safe for concurrent use (the ones in this package are).
	Sink ResultSink
	// Progress, when non-nil, receives periodic progress reports.
	Progress *Progress
	// MaxRetries re-executes a replica whose attempt ended in a panic or
	// an injected fault, up to this many extra attempts. Each attempt
	// restarts from the replica's own seed, so a recovered replica is
	// indistinguishable from one that never crashed. Timeouts, context
	// cancellation, and ordinary body errors are not retried: they are
	// either deliberate aborts or deterministic, so re-running them would
	// waste the budget.
	MaxRetries int
	// Stats, when non-nil, is filled with per-worker utilization tallies
	// (jobs run, retry attempts, busy time). Valid once Run returns;
	// collecting stats never affects scheduling or results.
	Stats *Stats
}

// WorkerStats is one worker's tallies for a single Run call.
type WorkerStats struct {
	// Jobs is the number of replicas the worker executed.
	Jobs uint64 `json:"jobs"`
	// Retries is the number of extra attempts consumed by crashed
	// replicas (sum of Attempts−1).
	Retries uint64 `json:"retries"`
	// Busy is wall-clock time spent executing replicas; Busy divided by
	// the sweep's elapsed time is the worker's utilization.
	Busy time.Duration `json:"busy_ns"`
}

func (ws *WorkerStats) add(r Result) {
	ws.Jobs++
	ws.Retries += uint64(r.Attempts - 1)
	ws.Busy += r.Elapsed
}

// Stats aggregates per-worker tallies for one Run call. Each worker writes
// only its own slot during the sweep, so no synchronization is needed to
// read the stats after Run returns. Methods are nil-safe.
type Stats struct {
	workers []WorkerStats
}

// Workers returns a copy of the per-worker tallies.
func (s *Stats) Workers() []WorkerStats {
	if s == nil {
		return nil
	}
	return append([]WorkerStats(nil), s.workers...)
}

// Totals sums the tallies across workers.
func (s *Stats) Totals() WorkerStats {
	var t WorkerStats
	if s == nil {
		return t
	}
	for _, w := range s.workers {
		t.Jobs += w.Jobs
		t.Retries += w.Retries
		t.Busy += w.Busy
	}
	return t
}

// Run executes the jobs across the pool and returns their results indexed
// by job position. Workers claim jobs in position order from one shared
// cursor. It blocks until every replica has completed or been cancelled;
// cancelling ctx marks not-yet-started replicas with ctx.Err() without
// running them.
func Run(ctx context.Context, jobs []Job, opts Options) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	s := &sweep{ctx: ctx, jobs: jobs, results: results, opts: opts}

	if opts.Stats != nil {
		opts.Stats.workers = make([]WorkerStats, workers)
	}

	if opts.Progress != nil {
		stop := opts.Progress.start(len(jobs), &s.done, &s.inFlight)
		defer stop()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := s.claim(); idx < len(jobs); idx = s.claim() {
				s.run(w, idx)
			}
		}(w)
	}
	wg.Wait()
	return results
}

// sweep is the shared state of one Run call.
type sweep struct {
	ctx      context.Context
	jobs     []Job
	results  []Result
	opts     Options
	claimed  atomic.Int64 // the next claim takes jobs[claimed]
	done     atomic.Int64
	inFlight atomic.Int64
}

// claim hands out the lowest unclaimed job index; an index past the end
// means the sweep is drained.
func (s *sweep) claim() int { return int(s.claimed.Add(1) - 1) }

// run executes the claimed replica idx as worker w, then records, tallies
// and emits its result.
func (s *sweep) run(w, idx int) {
	s.inFlight.Add(1)
	r := RunOne(s.ctx, s.jobs[idx], w, s.opts.MaxRetries)
	s.inFlight.Add(-1)
	s.results[idx] = r
	s.done.Add(1)
	if st := s.opts.Stats; st != nil {
		st.workers[w].add(r)
	}
	if s.opts.Sink != nil {
		emit(s.opts.Sink, r)
	}
}

// emit delivers a result to the sink, swallowing sink panics: a crashing
// observer must not take down the sweep (the result itself is still in the
// ordered slice Run returns, so nothing is lost).
func emit(sink ResultSink, r Result) {
	defer func() { recover() }()
	sink.Emit(r)
}

// RunOne executes a single replica as worker, re-running crashed attempts
// up to maxRetries times. Every attempt gets a fresh RNG from the job's
// seed, so whichever attempt completes produces the replica's one
// deterministic value. A cancelled ctx marks the replica with ctx.Err()
// without running it.
func RunOne(ctx context.Context, job Job, worker, maxRetries int) Result {
	res := Result{ID: job.ID, Tag: job.Tag, Seed: job.Seed, Worker: worker}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		if err := ctx.Err(); err != nil {
			res.Err = err
			break
		}
		res.Value, res.Err = runAttempt(ctx, job)
		if res.Err == nil || attempt >= maxRetries || !retryable(res.Err) {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// retryable reports whether an attempt's failure is a crash worth
// re-executing: a captured panic or an injected fault. Everything else
// (timeouts, cancellation, body errors) is final.
func retryable(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe) || fault.IsInjected(err)
}

// runAttempt executes one attempt with panic capture. The body runs in its
// own goroutine so a cancelled or expired ctx can abandon it; the buffered
// channel lets an abandoned body finish without leaking a blocked goroutine.
func runAttempt(ctx context.Context, job Job) (any, error) {
	type outcome struct {
		value any
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				stack := make([]byte, 16<<10)
				stack = stack[:runtime.Stack(stack, false)]
				ch <- outcome{err: &PanicError{Value: r, Stack: stack}}
			}
		}()
		if err := fpReplica.Inject(ctx); err != nil {
			ch <- outcome{err: err}
			return
		}
		v, err := job.Run(ctx, engine.NewRNG(job.Seed))
		ch <- outcome{value: v, err: err}
	}()
	select {
	case out := <-ch:
		return out.value, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
