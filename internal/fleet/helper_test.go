package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"popkit/internal/engine"
)

// helpUntilDone starts k goroutines that call h.RunOne until it reports
// nothing left, once start is closed. The returned WaitGroup tracks them.
func helpUntilDone(h *Helper, k int, start <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for h.RunOne() {
			}
		}()
	}
	return &wg
}

// joinedJobs wraps makeJobs' bodies to count executions per replica, sleep
// briefly so helpers have time to claim, and close midway once replica
// mid has started — the signal that lets helpers join mid-sweep.
func joinedJobs(n, mid int, runs []atomic.Int32, midway chan struct{}) []Job {
	jobs := makeJobs(n)
	for i := range jobs {
		i, body := i, jobs[i].Run
		jobs[i].Run = func(ctx context.Context, rng *engine.RNG) (any, error) {
			runs[i].Add(1)
			if i == mid {
				close(midway)
			}
			time.Sleep(200 * time.Microsecond)
			return body(ctx, rng)
		}
	}
	return jobs
}

// TestHelpersJoinMidSweep: goroutines that join a running one-worker sweep
// after it has started claim every replica exactly once between them and
// the pool, the results and the OrderedSink stream equal a plain one-worker
// sweep's, and Stats counts each replica once — the helpers' share in
// their own slot, as steals.
func TestHelpersJoinMidSweep(t *testing.T) {
	const n = 120
	want := values(Run(context.Background(), makeJobs(n), Options{Workers: 1}), t)
	var wantOrder []uint64
	Run(context.Background(), makeJobs(n), Options{Workers: 1, Sink: NewOrderedSink(SinkFunc(func(r Result) {
		wantOrder = append(wantOrder, r.Value.(uint64))
	}))})

	runs := make([]atomic.Int32, n)
	midway := make(chan struct{})
	var gotOrder []uint64
	var stats Stats
	var helpers *sync.WaitGroup
	res := Run(context.Background(), joinedJobs(n, 3, runs, midway), Options{
		Workers: 1,
		Stats:   &stats,
		Sink: NewOrderedSink(SinkFunc(func(r Result) {
			gotOrder = append(gotOrder, r.Value.(uint64))
		})),
		Join: func(h *Helper) { helpers = helpUntilDone(h, 3, midway) },
	})
	helpers.Wait()

	got := values(res, t)
	byHelper := 0
	for i := range got {
		if c := runs[i].Load(); c != 1 {
			t.Fatalf("replica %d ran %d times, want exactly once", i, c)
		}
		if got[i] != want[i] {
			t.Fatalf("replica %d = %d, want %d (one-worker sweep)", i, got[i], want[i])
		}
		if res[i].Worker == 1 {
			byHelper++
		} else if res[i].Worker != 0 {
			t.Fatalf("replica %d reports worker %d; want 0 (pool) or 1 (helper)", i, res[i].Worker)
		}
	}
	if byHelper == 0 {
		t.Fatal("helpers that joined mid-sweep ran no replica")
	}
	if len(gotOrder) != n {
		t.Fatalf("ordered sink delivered %d results, want %d", len(gotOrder), n)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("ordered sink position %d = %d, want %d", i, gotOrder[i], wantOrder[i])
		}
	}

	ws := stats.Workers()
	if len(ws) != 2 {
		t.Fatalf("stats slots = %d, want 2 (pool worker + helpers)", len(ws))
	}
	tot := stats.Totals()
	if tot.Jobs != n {
		t.Fatalf("Totals().Jobs = %d, want %d", tot.Jobs, n)
	}
	if ws[1].Jobs != uint64(byHelper) || ws[1].Steals != uint64(byHelper) || tot.Steals != uint64(byHelper) {
		t.Fatalf("helper slot %+v, total steals %d; want %d jobs, all steals", ws[1], tot.Steals, byHelper)
	}
}

// TestHelperCancellation: cancelling the sweep's context mid-run still
// marks every unstarted replica with ctx.Err(), whether the pool or a
// helper claims it, and leaves no result slot unfilled.
func TestHelperCancellation(t *testing.T) {
	const n = 60
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: i, Seed: uint64(i + 1), Run: func(ctx context.Context, _ *engine.RNG) (any, error) {
			if i == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	start := make(chan struct{})
	close(start)
	var helpers *sync.WaitGroup
	res := Run(ctx, jobs, Options{Workers: 1, Join: func(h *Helper) { helpers = helpUntilDone(h, 2, start) }})
	helpers.Wait()
	cancelled := 0
	for i, r := range res {
		if r.ID != i || r.Attempts < 1 {
			t.Fatalf("result %d unfilled: %+v", i, r)
		}
		if r.Err != nil {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("replica %d: err %v, want context.Canceled", i, r.Err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no replica was marked cancelled")
	}
}

// TestRunWaitsForHelper: Run must not return while a helper is still
// running a replica it claimed, even after the pool has drained, and a
// RunOne after Run returned does nothing.
func TestRunWaitsForHelper(t *testing.T) {
	helperStarted := make(chan struct{})
	release := make(chan struct{})
	jobs := []Job{
		// The pool worker holds replica 0 until the helper has claimed 1,
		// so only the helper can run replica 1.
		{ID: 0, Seed: 1, Run: func(context.Context, *engine.RNG) (any, error) {
			<-helperStarted
			return 0, nil
		}},
		{ID: 1, Seed: 2, Run: func(context.Context, *engine.RNG) (any, error) {
			close(helperStarted)
			<-release
			return 1, nil
		}},
	}
	var helper *Helper
	returned := make(chan []Result)
	go func() {
		returned <- Run(context.Background(), jobs, Options{Workers: 1, Join: func(h *Helper) {
			helper = h
			go h.RunOne()
		}})
	}()
	<-helperStarted
	select {
	case <-returned:
		t.Fatal("Run returned while a helper was still running replica 1")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	res := <-returned
	if res[1].Err != nil || res[1].Value != 1 || res[1].Worker != 1 {
		t.Fatalf("helper's replica not reported before Run returned: %+v", res[1])
	}
	if helper.RunOne() {
		t.Fatal("RunOne after Run returned claimed a replica")
	}
}
