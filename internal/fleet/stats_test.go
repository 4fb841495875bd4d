package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"popkit/internal/engine"
)

// TestStatsAccounting runs a lopsided sweep (a quarter of the jobs are slow)
// and checks the tallies balance: jobs sum to the sweep size and busy time
// is recorded.
func TestStatsAccounting(t *testing.T) {
	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID:   i,
			Seed: uint64(i + 1),
			Run: func(ctx context.Context, rng *engine.RNG) (any, error) {
				if i < n/4 {
					time.Sleep(2 * time.Millisecond)
				}
				return i, nil
			},
		}
	}
	var stats Stats
	results := Run(context.Background(), jobs, Options{Workers: 4, Stats: &stats})
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i {
			t.Fatalf("result %d corrupted: %+v", i, r)
		}
	}
	ws := stats.Workers()
	if len(ws) != 4 {
		t.Fatalf("worker slots = %d, want 4", len(ws))
	}
	tot := stats.Totals()
	if tot.Jobs != n {
		t.Fatalf("total jobs = %d, want %d", tot.Jobs, n)
	}
	if tot.Retries != 0 {
		t.Fatalf("retries = %d, want 0", tot.Retries)
	}
	if tot.Busy <= 0 {
		t.Fatal("no busy time recorded")
	}
}

// TestStatsRetries checks retry attempts land in the tallies: a replica
// that panics on its first attempt consumes one retry.
func TestStatsRetries(t *testing.T) {
	attempts := 0
	jobs := []Job{{
		ID:   0,
		Seed: 1,
		Run: func(ctx context.Context, rng *engine.RNG) (any, error) {
			attempts++
			if attempts == 1 {
				panic("first attempt dies")
			}
			return "ok", nil
		},
	}}
	var stats Stats
	results := Run(context.Background(), jobs, Options{Workers: 1, MaxRetries: 2, Stats: &stats})
	if results[0].Err != nil || results[0].Attempts != 2 {
		t.Fatalf("retry did not recover: %+v", results[0])
	}
	if tot := stats.Totals(); tot.Retries != 1 || tot.Jobs != 1 {
		t.Fatalf("tallies = %+v, want 1 job / 1 retry", tot)
	}
}

// TestStatsDoNotChangeResults pins the observability contract: the same
// sweep with and without stats produces identical values, and a nil Stats
// is inert.
func TestStatsDoNotChangeResults(t *testing.T) {
	mk := func() []Job {
		jobs := make([]Job, 16)
		for i := range jobs {
			jobs[i] = Job{ID: i, Seed: uint64(i + 7), Run: func(ctx context.Context, rng *engine.RNG) (any, error) {
				return rng.Intn(1 << 20), nil
			}}
		}
		return jobs
	}
	plain := Run(context.Background(), mk(), Options{Workers: 3})
	var stats Stats
	traced := Run(context.Background(), mk(), Options{Workers: 3, Stats: &stats})
	for i := range plain {
		if plain[i].Value != traced[i].Value {
			t.Fatalf("replica %d diverged with stats: %v vs %v", i, plain[i].Value, traced[i].Value)
		}
	}
	var nilStats *Stats
	if nilStats.Workers() != nil || nilStats.Totals() != (WorkerStats{}) {
		t.Fatal("nil Stats not inert")
	}
}

// TestStatsErrorJobsStillCounted: failed replicas count as executed jobs.
func TestStatsErrorJobsStillCounted(t *testing.T) {
	jobs := []Job{{ID: 0, Seed: 1, Run: func(ctx context.Context, rng *engine.RNG) (any, error) {
		return nil, errors.New("body error")
	}}}
	var stats Stats
	Run(context.Background(), jobs, Options{Workers: 1, Stats: &stats})
	if tot := stats.Totals(); tot.Jobs != 1 || tot.Retries != 0 {
		t.Fatalf("tallies = %+v, want 1 job / 0 retries (body errors are final)", tot)
	}
}
