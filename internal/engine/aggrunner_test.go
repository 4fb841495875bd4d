package engine

import (
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// aggEpidemicProtocol is a one-rule spreading protocol: infected +
// susceptible → two infected. Unlike runner_test's epidemicProtocol its
// responder guard requires a susceptible, so the saturated population is
// silent — which is what the silence and accounting tests below need.
func aggEpidemicProtocol() (*Protocol, bitmask.State, bitmask.State, bitmask.Formula) {
	sp := bitmask.NewSpace()
	v := sp.Bool("I")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(v), bitmask.IsNot(v), bitmask.Is(v), bitmask.Is(v))
	zero := bitmask.State{}
	return CompileProtocol(rs), v.Set(zero, true), zero, bitmask.Is(v)
}

func TestAggregateRunnerSilence(t *testing.T) {
	proto, infected, _, _ := aggEpidemicProtocol()
	pop := NewCounted(map[bitmask.State]int64{infected: 512})
	r := NewCountedRunner(proto, pop, NewRNG(1), 0)
	if r.LeapStep(0) {
		t.Fatal("fully infected epidemic should be silent")
	}
	if r.Interactions != 0 || r.FiredTotal != 0 {
		t.Fatalf("silent step advanced: %d interactions, %d firings", r.Interactions, r.FiredTotal)
	}
}

// TestAggregateRunnerHorizon checks exact horizon truncation: the runner
// must land on the interaction bound exactly, never past it, under both
// step flavours.
func TestAggregateRunnerHorizon(t *testing.T) {
	proto, infected, healthy, _ := aggEpidemicProtocol()
	for _, force := range []bool{false, true} {
		for _, horizon := range []uint64{1, 7, 100, 1000} {
			pop := NewCounted(map[bitmask.State]int64{infected: 8, healthy: 504})
			r := NewCountedRunner(proto, pop, NewRNG(7*horizon+1), DefaultMinRunFirings)
			if force {
				r.MinRunFirings = 0
			}
			for i := 0; i < 10000; i++ {
				if !r.LeapStep(horizon) || r.Interactions >= horizon {
					break
				}
			}
			if r.Interactions > horizon {
				t.Fatalf("force=%v horizon=%d: overshot to %d interactions", force, horizon, r.Interactions)
			}
			if r.Interactions != horizon {
				t.Fatalf("force=%v horizon=%d: stalled at %d interactions", force, horizon, r.Interactions)
			}
			if r.FiredTotal > r.Interactions {
				t.Fatalf("force=%v horizon=%d: %d firings in %d interactions", force, horizon, r.FiredTotal, r.Interactions)
			}
		}
	}
}

// TestAggregateRunnerEpidemicCompletes drives the epidemic to saturation
// through the forced aggregate path and checks the terminal configuration,
// per-rule accounting, and tracker agreement.
func TestAggregateRunnerEpidemicCompletes(t *testing.T) {
	proto, infected, healthy, isI := aggEpidemicProtocol()
	const n = 4096
	pop := NewCounted(map[bitmask.State]int64{infected: 1, healthy: n - 1})
	r := NewCountedRunner(proto, pop, NewRNG(99), 0)
	tr := r.Track("i", isI)
	rounds, ok := r.RunTracked(func() bool { return tr.Count() == n }, 10000)
	if !ok {
		t.Fatal("epidemic did not saturate")
	}
	if got := pop.CountState(infected); got != n {
		t.Fatalf("terminal infected count %d, want %d", got, n)
	}
	// Every firing infects exactly one agent: n−1 firings, all of rule 0.
	if r.FiredTotal != n-1 || r.Fired[0] != n-1 {
		t.Fatalf("fired %d total / %d rule-0, want %d", r.FiredTotal, r.Fired[0], n-1)
	}
	if rounds <= 0 {
		t.Fatalf("rounds = %v", rounds)
	}
	// Saturated epidemic is silent.
	if r.LeapStep(0) {
		t.Fatal("saturated epidemic still alive")
	}
}

// TestAggregateRunnerWeightedGroups exercises the conditional binomial
// chain over multiple matching rule groups with unequal weights: two rules
// both matching the same pair type, weights 3:1, must fire in that ratio.
func TestAggregateRunnerWeightedGroups(t *testing.T) {
	sp := bitmask.NewSpace()
	va, vb := sp.Bool("A"), sp.Bool("B")
	rs := rules.NewRuleset(sp)
	zero := bitmask.State{}
	a := bitmask.Is(va)
	// Both rules match (A, A) pairs and toggle B on the responder — the
	// population keeps churning between B-states so neither rule starves.
	rs.AddWeighted(3, a, a, a, bitmask.And(a, bitmask.Is(vb)))
	rs.AddWeighted(1, a, a, a, bitmask.And(a, bitmask.IsNot(vb)))
	proto := CompileProtocol(rs)
	pop := NewCounted(map[bitmask.State]int64{va.Set(zero, true): 2048})
	r := NewCountedRunner(proto, pop, NewRNG(5), 0)
	const horizon = 200000
	for r.Interactions < horizon {
		if !r.LeapStep(horizon) {
			t.Fatal("churning protocol went silent")
		}
	}
	f0, f1 := float64(r.Fired[0]), float64(r.Fired[1])
	if f0+f1 == 0 {
		t.Fatal("no firings recorded")
	}
	ratio := f0 / (f0 + f1)
	// 3:1 weights → 0.75 share; 5σ band at ~150k firings is well under 1%.
	if ratio < 0.74 || ratio > 0.76 {
		t.Fatalf("rule-0 share %.4f, want ≈0.75 (fired %d vs %d)", ratio, r.Fired[0], r.Fired[1])
	}
}
