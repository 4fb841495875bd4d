package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/engine"
	"popkit/internal/fault"
)

// sumJob consumes the replica's RNG stream, so the value depends only on
// the seed — the determinism contract under test.
func sumJob(steps int) func(context.Context, *engine.RNG) (any, error) {
	return func(_ context.Context, rng *engine.RNG) (any, error) {
		var acc uint64
		for i := 0; i < steps; i++ {
			acc += rng.Uint64()
		}
		return acc, nil
	}
}

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Tag: "t", Seed: engine.SplitSeed(42, uint64(i)), Run: sumJob(100 + i)}
	}
	return jobs
}

func values(results []Result, t *testing.T) []uint64 {
	t.Helper()
	out := make([]uint64, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("replica %d failed: %v", i, r.Err)
		}
		out[i] = r.Value.(uint64)
	}
	return out
}

// TestWorkerCountInvariance is the core fleet determinism guarantee: the
// ordered results are identical for any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	jobs := makeJobs(40)
	want := values(Run(context.Background(), jobs, Options{Workers: 1}), t)
	for _, workers := range []int{2, 3, 8, 64} {
		got := values(Run(context.Background(), jobs, Options{Workers: workers}), t)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: replica %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestResultMetadata(t *testing.T) {
	jobs := makeJobs(5)
	res := Run(context.Background(), jobs, Options{Workers: 2})
	for i, r := range res {
		if r.ID != i || r.Tag != "t" || r.Seed != jobs[i].Seed {
			t.Errorf("replica %d metadata mismatch: %+v", i, r)
		}
		if r.Elapsed <= 0 {
			t.Errorf("replica %d has no elapsed time", i)
		}
	}
}

func TestPanicCapture(t *testing.T) {
	jobs := makeJobs(6)
	jobs[3].Run = func(context.Context, *engine.RNG) (any, error) {
		panic("replica exploded")
	}
	res := Run(context.Background(), jobs, Options{Workers: 3})
	var pe *PanicError
	if !errors.As(res[3].Err, &pe) {
		t.Fatalf("replica 3: want PanicError, got %v", res[3].Err)
	}
	if !strings.Contains(pe.Error(), "replica exploded") {
		t.Errorf("panic message lost: %v", pe)
	}
	for i, r := range res {
		if i != 3 && r.Err != nil {
			t.Errorf("healthy replica %d infected: %v", i, r.Err)
		}
	}
}

// TestRetryRecoversPanic: a replica that panics on its first attempts must
// be re-executed from its own seed, so the recovered sweep is value-
// identical to a fault-free one.
func TestRetryRecoversPanic(t *testing.T) {
	jobs := makeJobs(12)
	want := values(Run(context.Background(), jobs, Options{Workers: 1}), t)

	var crashes atomic.Int64
	for i := range jobs {
		inner := jobs[i].Run
		var attempts atomic.Int64
		jobs[i].Run = func(ctx context.Context, rng *engine.RNG) (any, error) {
			if attempts.Add(1) <= 2 {
				crashes.Add(1)
				panic("transient crash")
			}
			return inner(ctx, rng)
		}
	}
	res := Run(context.Background(), jobs, Options{Workers: 4, MaxRetries: 3})
	got := values(res, t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica %d recovered to %d, want %d", i, got[i], want[i])
		}
		if res[i].Attempts != 3 {
			t.Errorf("replica %d took %d attempts, want 3", i, res[i].Attempts)
		}
	}
	if crashes.Load() != int64(2*len(jobs)) {
		t.Fatalf("crash count = %d, want %d", crashes.Load(), 2*len(jobs))
	}
}

// TestRetryBudgetExhausted: when every attempt panics, the final attempt's
// PanicError is the result.
func TestRetryBudgetExhausted(t *testing.T) {
	jobs := makeJobs(2)
	var attempts atomic.Int64
	jobs[1].Run = func(context.Context, *engine.RNG) (any, error) {
		attempts.Add(1)
		panic("hard crash")
	}
	res := Run(context.Background(), jobs, Options{Workers: 1, MaxRetries: 2})
	var pe *PanicError
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("want PanicError, got %v", res[1].Err)
	}
	if attempts.Load() != 3 || res[1].Attempts != 3 {
		t.Fatalf("attempts = %d (recorded %d), want 3", attempts.Load(), res[1].Attempts)
	}
	if res[0].Err != nil || res[0].Attempts != 1 {
		t.Errorf("healthy replica affected: %+v", res[0])
	}
}

// TestRetryDoesNotMaskDeterministicFailures: body errors, timeouts, and
// cancellation must not consume retry attempts.
func TestRetryDoesNotMaskDeterministicFailures(t *testing.T) {
	boom := errors.New("deterministic failure")
	var bodyRuns atomic.Int64
	jobs := makeJobs(2)
	jobs[0].Run = func(context.Context, *engine.RNG) (any, error) {
		bodyRuns.Add(1)
		return nil, boom
	}
	jobs[1].Run = func(context.Context, *engine.RNG) (any, error) {
		return nil, context.DeadlineExceeded
	}
	res := Run(context.Background(), jobs, Options{Workers: 2, MaxRetries: 5})
	if !errors.Is(res[0].Err, boom) || bodyRuns.Load() != 1 {
		t.Fatalf("body error retried: runs=%d err=%v", bodyRuns.Load(), res[0].Err)
	}
	if !errors.Is(res[1].Err, context.DeadlineExceeded) || res[1].Attempts != 1 {
		t.Fatalf("timeout retried: attempts=%d err=%v", res[1].Attempts, res[1].Err)
	}
}

// TestReplicaFailpointRetry drives the fleet/replica failpoint end to end:
// a deterministic times-bounded panic trigger kills early attempts and the
// retry budget recovers the sweep to fault-free values.
func TestReplicaFailpointRetry(t *testing.T) {
	t.Cleanup(fault.Reset)
	jobs := makeJobs(6)
	want := values(Run(context.Background(), jobs, Options{Workers: 1}), t)

	if err := fault.Enable("fleet/replica=panic(times=4)"); err != nil {
		t.Fatal(err)
	}
	res := Run(context.Background(), jobs, Options{Workers: 1, MaxRetries: 6})
	got := values(res, t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica %d = %d under faults, want %d", i, got[i], want[i])
		}
	}
	var retried int
	for _, r := range res {
		retried += r.Attempts - 1
	}
	if retried != 4 {
		t.Fatalf("consumed %d retries, want 4 (one per injected panic)", retried)
	}

	// Injected errors are retryable too.
	fault.Reset()
	if err := fault.Enable("fleet/replica=error(times=2)"); err != nil {
		t.Fatal(err)
	}
	got = values(Run(context.Background(), jobs, Options{Workers: 1, MaxRetries: 3}), t)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replica %d = %d under injected errors, want %d", i, got[i], want[i])
		}
	}

	// Without a retry budget the injected failure is the result.
	fault.Reset()
	if err := fault.Enable("fleet/replica=error(times=1)"); err != nil {
		t.Fatal(err)
	}
	res = Run(context.Background(), jobs, Options{Workers: 1})
	if !fault.IsInjected(res[0].Err) {
		t.Fatalf("want injected error surfaced, got %v", res[0].Err)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bodies atomic.Int64
	inFirst := make(chan struct{})
	release := make(chan struct{})
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: i, Run: func(context.Context, *engine.RNG) (any, error) {
			bodies.Add(1)
			if i == 0 {
				close(inFirst)
				<-release
			}
			return "done", nil
		}}
	}
	go func() {
		<-inFirst // replica 0 is in flight…
		cancel()  // …when the sweep is cancelled
		close(release)
	}()
	res := Run(ctx, jobs, Options{Workers: 1})
	// Replica 0 raced the cancel — either outcome is fine. Every later
	// replica must be marked cancelled without its body having run.
	for i := 1; i < len(jobs); i++ {
		if !errors.Is(res[i].Err, context.Canceled) {
			t.Errorf("replica %d: want Canceled, got value=%v err=%v", i, res[i].Value, res[i].Err)
		}
	}
	if got := bodies.Load(); got != 1 {
		t.Fatalf("%d replica bodies ran after cancellation, want 1", got)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	jobs := makeJobs(7)
	jobs[2].Run = func(context.Context, *engine.RNG) (any, error) {
		return nil, errors.New("boom")
	}
	Run(context.Background(), jobs, Options{Workers: 3, Sink: sink})
	seen := map[int]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec struct {
			ID   int     `json:"id"`
			Seed uint64  `json:"seed"`
			Err  string  `json:"err"`
			Ms   float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		seen[rec.ID] = true
		if rec.ID == 2 && rec.Err != "boom" {
			t.Errorf("replica 2 error not recorded: %+v", rec)
		}
		if rec.Seed != jobs[rec.ID].Seed {
			t.Errorf("replica %d seed mismatch", rec.ID)
		}
	}
	if len(seen) != len(jobs) {
		t.Fatalf("sink saw %d replicas, want %d", len(seen), len(jobs))
	}
}

func TestProgressReports(t *testing.T) {
	// Run joins the reporter goroutine before returning, so reading the
	// buffer afterwards is race-free.
	var buf bytes.Buffer
	jobs := makeJobs(12)
	Run(context.Background(), jobs, Options{
		Workers:  3,
		Progress: &Progress{W: &buf, Interval: time.Millisecond, Label: "test"},
	})
	out := buf.String()
	if !strings.Contains(out, "test: ") || !strings.Contains(out, "12/12 done") {
		t.Fatalf("progress output missing final report:\n%s", out)
	}
}

// TestClaimsFollowReplicaOrder: workers claim the lowest unclaimed replica,
// so while replica 0 blocks one worker, the other runs 1..7 in ID order and
// an ordered sink never waits behind a whole per-worker range.
func TestClaimsFollowReplicaOrder(t *testing.T) {
	const n = 8
	var (
		mu    sync.Mutex
		order []int
	)
	rest := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Run: func(context.Context, *engine.RNG) (any, error) {
			if i == 0 {
				select {
				case <-rest:
				case <-time.After(5 * time.Second):
					return nil, errors.New("replicas 1..7 never finished")
				}
				return i, nil
			}
			mu.Lock()
			defer mu.Unlock()
			if order = append(order, i); len(order) == n-1 {
				close(rest)
			}
			return i, nil
		}}
	}
	res := Run(context.Background(), jobs, Options{Workers: 2})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	for k, id := range order {
		if id != k+1 {
			t.Fatalf("replicas 1..7 ran in order %v, want ID order", order)
		}
	}
}

// TestEachReplicaRunsOnce races four workers over one cursor: every replica
// must run exactly once, none dropped or duplicated.
func TestEachReplicaRunsOnce(t *testing.T) {
	const n = 500
	runs := make([]atomic.Int32, n)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: i, Run: func(context.Context, *engine.RNG) (any, error) {
			runs[i].Add(1)
			return i, nil
		}}
	}
	res := Run(context.Background(), jobs, Options{Workers: 4})
	for i := range runs {
		if c := runs[i].Load(); c != 1 || res[i].Value != i {
			t.Fatalf("replica %d ran %d times, result %+v", i, c, res[i])
		}
	}
}

func TestSplitSeedStreams(t *testing.T) {
	// Distinct replicas under one root must get distinct seeds, and the
	// derivation must be a pure function.
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 4096; i++ {
		s := engine.SplitSeed(7, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SplitSeed collision: replicas %d and %d both get %#x", prev, i, s)
		}
		seen[s] = i
	}
	if engine.SplitSeed(7, 3) != engine.SplitSeed(7, 3) {
		t.Fatal("SplitSeed is not deterministic")
	}
	// Replica streams must differ from the raw root stream and each other.
	a := engine.NewReplicaRNG(7, 0).Uint64()
	b := engine.NewReplicaRNG(7, 1).Uint64()
	c := engine.NewRNG(7).Uint64()
	if a == b || a == c {
		t.Fatalf("replica streams not independent: %#x %#x %#x", a, b, c)
	}
}
