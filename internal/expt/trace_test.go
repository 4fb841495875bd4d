package expt

import (
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/junta"
	"popkit/internal/obs"
)

// traceTwoMeet runs the two-meet X reduction on the auto-selected kernel,
// optionally traced, returning (final #X, rounds, trace).
func traceTwoMeet(n int64, seed uint64, tr *obs.Trace) (int64, float64, *obs.RuleStats) {
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	tm := junta.NewTwoMeet(sp, x)
	rs := tm.Rules()
	p := engine.CompileProtocol(rs)
	sX := tm.InitAgent(bitmask.State{})
	drv := NewDriver(p, map[bitmask.State]int64{sX: n}, engine.NewRNG(seed), RunnerHints{})
	tx := drv.Track("X", bitmask.Is(x))
	var stats *obs.RuleStats
	if tr != nil {
		drv.SetTrace(tr, 3)
		stats = obs.NewRuleStats(p.NumRules())
		drv.SetStats(stats)
	}
	rounds, _ := drv.RunUntil(func() bool { return tx.Count() <= 4 }, 1e9)
	return tx.Count(), rounds, stats
}

// TestDriverTraceTimeline checks that a traced counted-kernel run emits
// "count" events carrying the tracked #X values, rate-limited to at most
// one per parallel round, with monotone round stamps.
func TestDriverTraceTimeline(t *testing.T) {
	tr := obs.NewTrace(1 << 16)
	finalX, rounds, stats := traceTwoMeet(5000, 77, tr)
	if finalX > 4 {
		t.Fatalf("two-meet did not converge: #X=%d", finalX)
	}
	evs := tr.Events()
	if len(evs) < 2 {
		t.Fatalf("traced run emitted %d events", len(evs))
	}
	// The timeline opens with the kernel-selection announcement: which
	// runner simulates the replica, and why selection picked it.
	if evs[0].Kind != "runner" || evs[0].Replica != 3 {
		t.Fatalf("first event is not the runner announcement: %+v", evs[0])
	}
	if evs[0].Name == "" || evs[0].Reason == "" {
		t.Fatalf("runner announcement missing kind or reason: %+v", evs[0])
	}
	evs = evs[1:]
	prev := -1.0
	for _, e := range evs {
		if e.Kind != "count" || e.Replica != 3 {
			t.Fatalf("unexpected event: %+v", e)
		}
		if e.Rounds < prev {
			t.Fatalf("rounds not monotone: %v after %v", e.Rounds, prev)
		}
		prev = e.Rounds
		if _, ok := e.Counts["X"]; !ok {
			t.Fatalf("event missing tracked count: %+v", e)
		}
	}
	// Rate limit: at most one event per started round.
	if float64(len(evs)) > rounds+2 {
		t.Fatalf("%d events for %.1f rounds — rate limit broken", len(evs), rounds)
	}
	// The timeline must actually show the #X decay.
	first, last := evs[0].Counts["X"], evs[len(evs)-1].Counts["X"]
	if first <= last {
		t.Fatalf("#X did not decay on the timeline: %d → %d", first, last)
	}
	if stats.Total() == 0 {
		t.Fatal("per-rule stats recorded no firings")
	}
}

// TestDriverTraceDeterminism is the core acceptance property at the driver
// level: attaching a trace must not change the trajectory.
func TestDriverTraceDeterminism(t *testing.T) {
	xPlain, rPlain, _ := traceTwoMeet(3000, 1234, nil)
	xTraced, rTraced, _ := traceTwoMeet(3000, 1234, obs.NewTrace(1<<16))
	if xPlain != xTraced || rPlain != rTraced {
		t.Fatalf("traced run diverged: (#X=%d, r=%v) vs (#X=%d, r=%v)",
			xPlain, rPlain, xTraced, rTraced)
	}
}
