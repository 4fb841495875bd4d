package baseline

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

func TestApproxMajorityLargeGap(t *testing.T) {
	p := NewApproxMajority()
	proto := engine.CompileProtocol(p.Rules())
	const n = 100000
	// Gap well above √(n log n) ≈ 1073: reliable.
	wins := 0
	const seeds = 10
	for seed := uint64(0); seed < seeds; seed++ {
		pop := p.Population(n/2+3000, n/2-3000, 0)
		br := engine.NewCountedRunner(proto, pop, engine.NewRNG(seed), math.Inf(1))
		_, ok := br.RunTracked(func() bool {
			return p.Winner(pop) != 0
		}, 10000)
		if !ok {
			t.Fatalf("seed %d: no consensus", seed)
		}
		if p.Winner(pop) == +1 {
			wins++
		}
	}
	if wins != seeds {
		t.Errorf("A won only %d/%d with a large gap", wins, seeds)
	}
}

func TestApproxMajorityConvergesInLogTime(t *testing.T) {
	p := NewApproxMajority()
	proto := engine.CompileProtocol(p.Rules())
	const n = 1 << 20
	pop := p.Population(n/2+20000, n/2-20000, 0)
	br := engine.NewCountedRunner(proto, pop, engine.NewRNG(1), math.Inf(1))
	rounds, ok := br.RunTracked(func() bool {
		return p.Winner(pop) != 0
	}, 10000)
	if !ok {
		t.Fatal("no consensus")
	}
	if rounds > 50*math.Log(n) {
		t.Errorf("converged in %.0f rounds, want O(log n) ≈ %.0f", rounds, math.Log(n))
	}
}

// TestApproxMajorityTinyGapUnreliable demonstrates the known failure mode:
// with gap 1 the minority wins a non-negligible fraction of runs.
func TestApproxMajorityTinyGapUnreliable(t *testing.T) {
	p := NewApproxMajority()
	proto := engine.CompileProtocol(p.Rules())
	const n = 10000
	minorityWins := 0
	const seeds = 40
	for seed := uint64(0); seed < seeds; seed++ {
		pop := p.Population(n/2+1, n/2-1, 0)
		br := engine.NewCountedRunner(proto, pop, engine.NewRNG(seed), math.Inf(1))
		if _, ok := br.RunTracked(func() bool {
			return p.Winner(pop) != 0
		}, 1e6); !ok {
			t.Fatalf("seed %d: no consensus", seed)
		}
		if p.Winner(pop) == -1 {
			minorityWins++
		}
	}
	if minorityWins == 0 {
		t.Error("minority never won at gap 1 — approximate majority looks implausibly exact")
	}
	t.Logf("minority won %d/%d runs at gap 1", minorityWins, seeds)
}

func TestExactMajority4AlwaysCorrect(t *testing.T) {
	p := NewExactMajority4()
	proto := engine.CompileProtocol(p.Rules())
	const n = 2000
	for seed := uint64(0); seed < 10; seed++ {
		pop := p.Population(n/2+1, n/2-1)
		br := engine.NewCountedRunner(proto, pop, engine.NewRNG(seed), math.Inf(1))
		if _, ok := br.RunTracked(func() bool {
			d, _ := p.Decided(pop)
			return d
		}, 1e8); !ok {
			t.Fatalf("seed %d: never decided", seed)
		}
		if _, w := p.Decided(pop); w != +1 {
			t.Errorf("seed %d: minority won despite exactness", seed)
		}
	}
}

// TestExactMajority4TimeShape: gap-1 instances need Ω(n) rounds — the
// polynomial wall the paper's protocols avoid.
func TestExactMajority4TimeShape(t *testing.T) {
	p := NewExactMajority4()
	proto := engine.CompileProtocol(p.Rules())
	var prev float64
	for _, n := range []int64{1000, 4000} {
		var total float64
		const seeds = 5
		for seed := uint64(0); seed < seeds; seed++ {
			pop := p.Population(n/2+1, n/2-1)
			br := engine.NewCountedRunner(proto, pop, engine.NewRNG(seed), math.Inf(1))
			rounds, ok := br.RunTracked(func() bool {
				d, _ := p.Decided(pop)
				return d
			}, 1e9)
			if !ok {
				t.Fatal("never decided")
			}
			total += rounds
		}
		mean := total / seeds
		if mean < float64(n)/4 {
			t.Errorf("n=%d: gap-1 exact majority finished in %.0f rounds — superlinear expectation violated?", n, mean)
		}
		if prev > 0 && mean < 2*prev {
			t.Errorf("scaling too flat: %.0f -> %.0f for 4x n", prev, mean)
		}
		prev = mean
	}
}

func TestCoalescenceLeader(t *testing.T) {
	p := NewCoalescenceLeader()
	proto := engine.CompileProtocol(p.Rules())
	var prev float64
	for _, n := range []int64{1000, 8000} {
		pop := p.Population(n)
		br := engine.NewCountedRunner(proto, pop, engine.NewRNG(3), math.Inf(1))
		rounds, ok := br.RunTracked(func() bool {
			return p.Leaders(pop) == 1
		}, 1e9)
		if !ok {
			t.Fatal("never converged")
		}
		// Coalescence takes ≈ n rounds (expected Σ n(n−1)/k(k−1) ≈ n interactions... Θ(n) rounds).
		if rounds < float64(n)/8 || rounds > 16*float64(n) {
			t.Errorf("n=%d: coalescence took %.0f rounds, want Θ(n)", n, rounds)
		}
		if prev > 0 && rounds < 2*prev {
			t.Errorf("coalescence scaling too flat: %.0f -> %.0f", prev, rounds)
		}
		prev = rounds
	}
}

func TestBaselineStateCounts(t *testing.T) {
	// The comparison table reports exact automaton sizes: 3 states for
	// approximate majority, 4 for exact majority, 2 for coalescence.
	am := NewApproxMajority()
	p1 := engine.CompileProtocol(am.Rules())
	pop := am.Population(5, 5, 0)
	var initial []bitmask.State
	pop.ForEach(func(st bitmask.State, _ int64) { initial = append(initial, st) })
	if states, ok := p1.ReachableStates(initial, 100); !ok || len(states) != 3 {
		t.Errorf("approx majority reachable states = %d, want 3", len(states))
	}

	em := NewExactMajority4()
	p2 := engine.CompileProtocol(em.Rules())
	pop2 := em.Population(5, 5)
	initial = initial[:0]
	pop2.ForEach(func(st bitmask.State, _ int64) { initial = append(initial, st) })
	if states, ok := p2.ReachableStates(initial, 100); !ok || len(states) != 4 {
		t.Errorf("exact majority reachable states = %d, want 4", len(states))
	}

	cl := NewCoalescenceLeader()
	p3 := engine.CompileProtocol(cl.Rules())
	leader := cl.L.Set(bitmask.State{}, true)
	if states, ok := p3.ReachableStates([]bitmask.State{leader}, 100); !ok || len(states) != 2 {
		t.Errorf("coalescence reachable states = %d, want 2", len(states))
	}
}
