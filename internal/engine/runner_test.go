package engine

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// epidemicProtocol builds the one-way epidemic (I)+(·) → (I)+(I) on a fresh
// space; it is the canonical O(log n)-round process.
func epidemicProtocol() (*Protocol, *bitmask.Space, bitmask.Var) {
	sp := bitmask.NewSpace()
	i := sp.Bool("I")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(i), bitmask.True(), bitmask.Is(i), bitmask.Is(i))
	return CompileProtocol(rs), sp, i
}

func TestRunnerEpidemicCompletes(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 2000
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(1))
	tr := r.Track("I", bitmask.Is(infected))
	if tr.Count() != 1 {
		t.Fatalf("initial infected = %d", tr.Count())
	}
	rounds, ok := r.RunUntil(func(*Runner) bool { return tr.Count() == n }, 1, 500)
	if !ok {
		t.Fatalf("epidemic did not complete in 500 rounds (reached %d)", tr.Count())
	}
	// The one-way epidemic takes Θ(log n) rounds; allow a generous window.
	if rounds < math.Log(n)/2 || rounds > 30*math.Log(n) {
		t.Errorf("epidemic rounds = %.1f, expected Θ(ln n) ≈ %.1f", rounds, math.Log(n))
	}
}

func TestTrackerMatchesScan(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 500
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k%10 == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(2))
	tr := r.Track("I", bitmask.Is(infected))
	g := bitmask.Compile(bitmask.Is(infected))
	for step := 0; step < 2000; step++ {
		r.Step()
		if step%200 == 0 {
			if scan := int64(pop.Count(g)); scan != tr.Count() {
				t.Fatalf("step %d: tracker %d != scan %d", step, tr.Count(), scan)
			}
		}
	}
}

func TestMatchingRoundEpidemic(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 1024
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(3))
	tr := r.Track("I", bitmask.Is(infected))
	for round := 0; round < 400 && tr.Count() < n; round++ {
		r.MatchingRound()
	}
	if tr.Count() != n {
		t.Fatalf("matching-scheduler epidemic incomplete: %d/%d", tr.Count(), n)
	}
	// Under a matching scheduler, infections at most double per round, so
	// at least log2(n) rounds must have elapsed.
	if r.Rounds() < math.Log2(n) {
		t.Errorf("epidemic finished in %.1f rounds, impossible under matchings (< log2 n = %.1f)",
			r.Rounds(), math.Log2(n))
	}
}

func TestMatchingRoundOddPopulation(t *testing.T) {
	p, _, infected := epidemicProtocol()
	pop := NewDenseInit(7, func(k int) bitmask.State {
		var s bitmask.State
		if k < 3 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(4))
	r.MatchingRound() // must not panic with an unpaired agent
	if r.Interactions != 7 {
		t.Errorf("Interactions = %d, want 7 (one round)", r.Interactions)
	}
}

func TestRunnerCountsInteractionsIncludingMisses(t *testing.T) {
	p, _, _ := epidemicProtocol()
	// Nobody infected: the rule never matches, but steps still count.
	pop := NewDense(10)
	r := NewRunner(p, pop, NewRNG(5))
	r.RunRounds(3)
	if r.Interactions != 30 {
		t.Errorf("Interactions = %d, want 30", r.Interactions)
	}
	if r.Rounds() != 3 {
		t.Errorf("Rounds = %v, want 3", r.Rounds())
	}
}

func TestApplyAllAndResync(t *testing.T) {
	p, sp, infected := epidemicProtocol()
	pop := NewDense(100)
	r := NewRunner(p, pop, NewRNG(6))
	tr := r.Track("I", bitmask.Is(infected))
	n := pop.ApplyAll(bitmask.TrueGuard(), bitmask.SetVar(infected))
	if n != 100 {
		t.Fatalf("ApplyAll touched %d agents", n)
	}
	if tr.Count() != 0 {
		t.Fatal("tracker updated without resync — test premise broken")
	}
	r.ResyncTrackers()
	if tr.Count() != 100 {
		t.Errorf("after resync tracker = %d, want 100", tr.Count())
	}
	_ = sp
}

func TestRunUntilTimeout(t *testing.T) {
	p, _, infected := epidemicProtocol()
	pop := NewDense(50) // nobody infected; epidemic can never start
	r := NewRunner(p, pop, NewRNG(7))
	tr := r.Track("I", bitmask.Is(infected))
	rounds, ok := r.RunUntil(func(*Runner) bool { return tr.Count() > 0 }, 1, 20)
	if ok {
		t.Error("condition reported met in a dead population")
	}
	if rounds < 20 {
		t.Errorf("stopped after %.1f rounds, want ≥ 20", rounds)
	}
}

func TestReachableStates(t *testing.T) {
	sp := bitmask.NewSpace()
	l := sp.Bool("L")
	rs := rules.NewRuleset(sp)
	// Classic coalescing leader election: (L)+(L) → (L)+(¬L).
	rs.Add(bitmask.Is(l), bitmask.Is(l), bitmask.Is(l), bitmask.IsNot(l))
	p := CompileProtocol(rs)
	leader := l.Set(bitmask.State{}, true)
	states, ok := p.ReachableStates([]bitmask.State{leader}, 100)
	if !ok {
		t.Fatal("closure exceeded limit")
	}
	if len(states) != 2 {
		t.Errorf("reachable states = %d, want 2 (L and follower)", len(states))
	}
	// The limit is respected.
	if _, ok := p.ReachableStates([]bitmask.State{leader}, 1); ok {
		t.Error("limit of 1 not enforced")
	}
}

func TestNewDensePanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(1) did not panic")
		}
	}()
	NewDense(1)
}

func TestDenseHistogram(t *testing.T) {
	_, _, infected := epidemicProtocol()
	pop := NewDenseInit(10, func(k int) bitmask.State {
		var s bitmask.State
		if k < 4 {
			s = infected.Set(s, true)
		}
		return s
	})
	h := pop.Histogram()
	if len(h) != 2 {
		t.Fatalf("histogram has %d states, want 2", len(h))
	}
	inf := infected.Set(bitmask.State{}, true)
	if h[inf] != 4 || h[bitmask.State{}] != 6 {
		t.Errorf("histogram = %v", h)
	}
}
