package engine

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
	"popkit/internal/rules"
)

// statsHistogramAfter mirrors histogramAfter but optionally attaches a
// RuleStats tally, returning both the final histogram and the tally.
func statsHistogramAfter(seed uint64, n int, rounds float64, withStats bool) (map[bitmask.State]int64, *obs.RuleStats, *Runner) {
	sp := bitmask.NewSpace()
	p, a, _ := twoRuleProtocol(sp)
	pop := NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		if i == 0 {
			s = a.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(seed))
	if withStats {
		r.Stats = obs.NewRuleStats(p.NumRules())
	}
	r.RunRounds(rounds)
	return pop.Histogram(), r.Stats, r
}

// TestStatsDoNotPerturbRNG is the overhead-guard determinism half: the same
// seed must yield the identical trajectory with and without RuleStats
// attached, because the tally happens strictly after every RNG draw.
func TestStatsDoNotPerturbRNG(t *testing.T) {
	plain, _, _ := statsHistogramAfter(4242, 400, 15, false)
	traced, stats, r := statsHistogramAfter(4242, 400, 15, true)
	if len(plain) != len(traced) {
		t.Fatalf("histogram support differs with stats: %v vs %v", plain, traced)
	}
	for s, c := range plain {
		if traced[s] != c {
			t.Fatalf("species %v count %d (plain) vs %d (stats)", s, c, traced[s])
		}
	}
	if stats.Total() == 0 {
		t.Fatal("instrumented run recorded no firings")
	}
	if stats.Total() > r.Interactions {
		t.Fatalf("firings %d exceed interactions %d", stats.Total(), r.Interactions)
	}
}

// TestBatchRunnerStatsMirrorFired pins the batched kernel's dual tally:
// Stats must agree exactly with the existing Fired array.
func TestBatchRunnerStatsMirrorFired(t *testing.T) {
	sp := bitmask.NewSpace()
	p, a, _ := twoRuleProtocol(sp)
	var sA, s0 bitmask.State
	sA = a.Set(sA, true)
	pop := NewCounted(map[bitmask.State]int64{sA: 10, s0: 290})
	r := NewCountedRunner(p, pop, NewRNG(11), math.Inf(1))
	r.Stats = obs.NewRuleStats(p.NumRules())
	r.RunTracked(func() bool { return false }, 10)
	fired := r.Stats.Fired()
	for i, c := range r.Fired {
		if fired[i] != c {
			t.Fatalf("rule %d: Stats %d != Fired %d", i, fired[i], c)
		}
	}
	if r.Stats.Total() == 0 {
		t.Fatal("batched run recorded no firings")
	}
}

// TestGroupTally aggregates per-rule counts into named group totals.
func TestGroupTally(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	rs.AddGroup("infect", 1, rules.MustNew(bitmask.Is(a), bitmask.IsNot(a), bitmask.True(), bitmask.Is(a)))
	rs.Add(bitmask.IsNot(a), bitmask.Is(a), bitmask.Is(a), bitmask.True())
	p := CompileProtocol(rs)
	tally := p.GroupTally([]uint64{5, 7})
	if tally["infect"] != 5 {
		t.Fatalf("infect = %d, want 5", tally["infect"])
	}
	if tally["group1"] != 7 {
		t.Fatalf("group1 = %d, want 7 (tally: %v)", tally["group1"], tally)
	}
	// A short tally must not panic or misattribute.
	short := p.GroupTally([]uint64{3})
	if short["infect"] != 3 || short["group1"] != 0 {
		t.Fatalf("short tally wrong: %v", short)
	}
}

// BenchmarkStepNoStats / BenchmarkStepWithStats bound the instrumentation
// overhead on the dense kernel's hot path.
func BenchmarkStepNoStats(b *testing.B) {
	sp := bitmask.NewSpace()
	p, a, _ := twoRuleProtocol(sp)
	pop := NewDenseInit(1024, func(i int) bitmask.State {
		var s bitmask.State
		if i%2 == 0 {
			s = a.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}

func BenchmarkStepWithStats(b *testing.B) {
	sp := bitmask.NewSpace()
	p, a, _ := twoRuleProtocol(sp)
	pop := NewDenseInit(1024, func(i int) bitmask.State {
		var s bitmask.State
		if i%2 == 0 {
			s = a.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(1))
	r.Stats = obs.NewRuleStats(p.NumRules())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
}
