// Package fleet fans independent simulation replicas out across a pool of
// workers. The experiment harness is dominated by Monte-Carlo sweeps —
// dozens of (protocol, n, seed) replicas that share nothing but read-only
// compiled protocols — so the package's contract is determinism by
// construction: every replica derives all of its randomness from its own
// seed (see engine.SplitSeed), results are returned in job order, and a
// sweep therefore produces byte-identical output for any worker count,
// including the sequential loop it replaces.
//
// The executor is a bounded work-stealing pool: jobs are split into
// contiguous per-worker deques, owners pop from the front, and an idle
// worker steals from the back of the most loaded victim. Replicas that
// panic are captured and reported as error results instead of killing the
// sweep; per-replica timeouts and context cancellation mark the affected
// results with the corresponding error. With Options.MaxRetries set, a
// panicking (or fault-injected) replica is re-executed from its own seed —
// because every attempt restarts the replica's entire RNG stream, a
// recovered replica's value is byte-identical to one that never crashed.
//
// A running sweep can also be joined from outside its pool: with
// Options.Join set, goroutines holding the sweep's Helper claim unclaimed
// replicas through the same steal path and run them on their own stacks.
// popserved's idle job slots lend themselves to running jobs this way.
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
	// Timeout bounds the replica's wall-clock time; zero means none. On
	// expiry the result carries context.DeadlineExceeded. The replica's
	// goroutine is signalled via its context; a body that never checks it
	// keeps running detached, but the sweep moves on.
	Timeout time.Duration
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
	// Worker is the index of the worker that ran the replica; a replica a
	// Helper ran reports the pool size. It depends on scheduling —
	// reproducible output must not consume it.
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
	// (jobs run, steals, retry attempts, busy time). Valid once Run
	// returns; collecting stats never affects scheduling or results.
	Stats *Stats
	// Join, when non-nil, is called once on Run's goroutine, after each
	// pool worker has claimed its first replica, with a Helper through
	// which goroutines outside the pool can run the sweep's unclaimed
	// replicas. Run returns only after every replica a helper claimed has
	// reported.
	Join func(*Helper)
}

// WorkerStats is one worker's tallies for a single Run call.
type WorkerStats struct {
	// Jobs is the number of replicas the worker executed.
	Jobs uint64 `json:"jobs"`
	// Steals is how many of those were claimed from another worker's
	// deque — the load-balancing traffic.
	Steals uint64 `json:"steals"`
	// Retries is the number of extra attempts consumed by crashed
	// replicas (sum of Attempts−1).
	Retries uint64 `json:"retries"`
	// Busy is wall-clock time spent executing replicas; Busy divided by
	// the sweep's elapsed time is the worker's utilization.
	Busy time.Duration `json:"busy_ns"`
}

func (ws *WorkerStats) add(r Result, stolen bool) {
	ws.Jobs++
	if stolen {
		ws.Steals++
	}
	ws.Retries += uint64(r.Attempts - 1)
	ws.Busy += r.Elapsed
}

// Stats aggregates per-worker tallies for one Run call. Each worker writes
// only its own slot during the sweep, so no synchronization is needed to
// read the stats after Run returns. A sweep run with Options.Join has one
// more slot, last, that the helping goroutines share; every replica a
// helper ran counts there as a steal. Methods are nil-safe.
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
		t.Steals += w.Steals
		t.Retries += w.Retries
		t.Busy += w.Busy
	}
	return t
}

// Run executes the jobs across the pool and returns their results indexed
// by job position. It blocks until every replica has completed, timed out,
// or been cancelled; cancelling ctx marks not-yet-started replicas with
// ctx.Err() without running them.
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
	s := &sweep{ctx: ctx, jobs: jobs, results: results, opts: opts, workers: workers,
		deques: newDeques(len(jobs), workers)}

	if opts.Stats != nil {
		slots := workers
		if opts.Join != nil {
			slots++
		}
		opts.Stats.workers = make([]WorkerStats, slots)
	}

	if opts.Progress != nil {
		stop := opts.Progress.start(len(jobs), &s.done, &s.inFlight)
		defer stop()
	}

	// Claim each worker's first replica before any worker starts or a
	// helper joins, so a helper never takes the replica a pool worker was
	// about to start. Every deque starts non-empty (workers ≤ len(jobs)).
	first := make([]int, workers)
	for w := range first {
		first[w], _ = s.deques.popFront(w)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, idx int) {
			defer wg.Done()
			for stolen, ok := false, true; ok; idx, stolen, ok = s.deques.next(w) {
				s.run(w, idx, stolen)
			}
		}(w, first[w])
	}
	var h *Helper
	if opts.Join != nil {
		h = &Helper{s: s}
		opts.Join(h)
	}
	wg.Wait()
	h.close()
	return results
}

// sweep is the shared state of one Run call.
type sweep struct {
	ctx      context.Context
	jobs     []Job
	results  []Result
	opts     Options
	workers  int
	deques   *deques
	done     atomic.Int64
	inFlight atomic.Int64
	// helperMu guards the helpers' shared Stats slot.
	helperMu sync.Mutex
}

// run executes the claimed replica idx as worker w (w == workers for a
// helper), then records, tallies and emits its result.
func (s *sweep) run(w, idx int, stolen bool) {
	s.inFlight.Add(1)
	r := runOne(s.ctx, s.jobs[idx], w, s.opts.MaxRetries)
	s.inFlight.Add(-1)
	s.results[idx] = r
	s.done.Add(1)
	if st := s.opts.Stats; st != nil {
		if w < s.workers {
			st.workers[w].add(r, stolen)
		} else {
			s.helperMu.Lock()
			st.workers[w].add(r, stolen)
			s.helperMu.Unlock()
		}
	}
	if s.opts.Sink != nil {
		emit(s.opts.Sink, r)
	}
}

// Helper lets goroutines outside a sweep's pool run its unclaimed
// replicas. It is valid from the Options.Join call until Run returns;
// after that RunOne does nothing. Safe for concurrent use.
type Helper struct {
	s      *sweep
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup
}

// RunOne claims one unclaimed replica through the work-stealing path (the
// back of the fullest deque) and runs it on the calling goroutine, with the
// sweep's context, retry budget, sink and stats. It returns once the result
// is recorded and emitted. It returns false without running anything once
// every replica has been claimed or Run has returned.
func (h *Helper) RunOne() bool {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	h.active.Add(1)
	h.mu.Unlock()
	defer h.active.Done()
	idx, _, ok := h.s.deques.next(h.s.workers)
	if ok {
		h.s.run(h.s.workers, idx, true)
	}
	return ok
}

// close stops new claims and waits for the claimed replicas to report.
// Nil-safe.
func (h *Helper) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.active.Wait()
}

// emit delivers a result to the sink, swallowing sink panics: a crashing
// observer must not take down the sweep (the result itself is still in the
// ordered slice Run returns, so nothing is lost).
func emit(sink ResultSink, r Result) {
	defer func() { recover() }()
	sink.Emit(r)
}

// runOne executes a single replica, re-running crashed attempts up to
// maxRetries times. Every attempt gets a fresh RNG from the job's seed, so
// whichever attempt completes produces the replica's one deterministic
// value.
func runOne(ctx context.Context, job Job, worker, maxRetries int) Result {
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

// runAttempt executes one attempt with panic capture and an optional
// deadline. The body runs in its own goroutine so a timeout can abandon it;
// the buffered channel lets an abandoned body finish without leaking a
// blocked goroutine.
func runAttempt(ctx context.Context, job Job) (any, error) {
	jctx := ctx
	if job.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}
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
		if err := fpReplica.Inject(jctx); err != nil {
			ch <- outcome{err: err}
			return
		}
		v, err := job.Run(jctx, engine.NewRNG(job.Seed))
		ch <- outcome{value: v, err: err}
	}()
	select {
	case out := <-ch:
		return out.value, out.err
	case <-jctx.Done():
		return nil, jctx.Err()
	}
}

// deques is the work-stealing queue set: worker w owns the contiguous job
// range [bounds[w], bounds[w+1]) packed into one atomic word as
// head<<32 | tail. The owner CASes head forward; thieves CAS tail backward,
// so claims are unique without locks.
type deques struct {
	words  []atomic.Uint64
	bounds []int
}

func newDeques(jobs, workers int) *deques {
	d := &deques{
		words:  make([]atomic.Uint64, workers),
		bounds: make([]int, workers+1),
	}
	for w := 0; w < workers; w++ {
		lo := w * jobs / workers
		hi := (w + 1) * jobs / workers
		d.bounds[w] = lo
		d.bounds[w+1] = hi
		d.words[w].Store(uint64(lo)<<32 | uint64(hi))
	}
	return d
}

// next claims the worker's next job index: its own deque front first, then
// the back of the fullest victim. stolen reports whether the claim came
// from a victim's deque; ok=false means the whole sweep is drained. A w
// past the last deque (a Helper) owns none and only steals.
func (d *deques) next(w int) (idx int, stolen, ok bool) {
	if w < len(d.words) {
		if idx, ok := d.popFront(w); ok {
			return idx, false, true
		}
	}
	for {
		victim, remaining := -1, 0
		for v := range d.words {
			if v == w {
				continue
			}
			word := d.words[v].Load()
			if r := int(word&0xffffffff) - int(word>>32); r > remaining {
				victim, remaining = v, r
			}
		}
		if victim < 0 {
			return 0, false, false
		}
		if idx, ok := d.popBack(victim); ok {
			return idx, true, true
		}
		// Lost the race for that victim; rescan.
	}
}

func (d *deques) popFront(w int) (int, bool) {
	for {
		word := d.words[w].Load()
		head, tail := word>>32, word&0xffffffff
		if head >= tail {
			return 0, false
		}
		if d.words[w].CompareAndSwap(word, (head+1)<<32|tail) {
			return int(head), true
		}
	}
}

func (d *deques) popBack(w int) (int, bool) {
	for {
		word := d.words[w].Load()
		head, tail := word>>32, word&0xffffffff
		if head >= tail {
			return 0, false
		}
		if d.words[w].CompareAndSwap(word, head<<32|(tail-1)) {
			return int(tail - 1), true
		}
	}
}
