package engine

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

func TestCountedBasics(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	sA := a.Set(bitmask.State{}, true)
	pop := NewCounted(map[bitmask.State]int64{
		{}: 70,
		sA: 30,
	})
	if pop.N() != 100 {
		t.Fatalf("N = %d", pop.N())
	}
	if pop.NumSpecies() != 2 {
		t.Fatalf("NumSpecies = %d", pop.NumSpecies())
	}
	if got := pop.CountFormula(bitmask.Is(a)); got != 30 {
		t.Errorf("Count(A) = %d", got)
	}
	if got := pop.CountState(sA); got != 30 {
		t.Errorf("CountState = %d", got)
	}
	total := int64(0)
	pop.ForEach(func(_ bitmask.State, c int64) { total += c })
	if total != 100 {
		t.Errorf("ForEach total = %d", total)
	}
}

func TestCountedRejectsBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative count did not panic")
		}
	}()
	NewCounted(map[bitmask.State]int64{{}: -1, {Lo: 1}: 10})
}

// TestSecondRunnerPanics checks that a population feeds one match index
// only: a second counted runner on it would desynchronize the first one's
// tallies, so building it panics.
func TestSecondRunnerPanics(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(a), bitmask.IsNot(a), bitmask.True(), bitmask.Is(a))
	p := CompileProtocol(rs)
	pop := NewCounted(map[bitmask.State]int64{{}: 90, a.Set(bitmask.State{}, true): 10})
	NewCountedRunner(p, pop, NewRNG(1), math.Inf(1))
	defer func() {
		if recover() == nil {
			t.Error("a second runner on the same population did not panic")
		}
	}()
	NewCountedRunner(p, pop, NewRNG(2), DefaultMinRunFirings)
}

// TestBatchRunnerAgreesWithDense runs the same cancellation protocol on both
// engines with many seeds and compares the distribution of the absolute
// survivor count. This is the exactness check for the counted engine.
func TestBatchRunnerAgreesWithDense(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	b := sp.Bool("B")
	rs := rules.NewRuleset(sp)
	// Cancellation: (A)+(B) → (¬A)+(¬B); absorbing once one side is gone.
	rs.Add(bitmask.Is(a), bitmask.Is(b),
		bitmask.And(bitmask.IsNot(a), bitmask.IsNot(b)), bitmask.And(bitmask.IsNot(a), bitmask.IsNot(b)))
	p := CompileProtocol(rs)

	const n = 300
	const nA, nB = 180, 120
	const seeds = 30
	gA := bitmask.Compile(bitmask.Is(a))
	gB := bitmask.Compile(bitmask.Is(b))

	var denseRounds, countRounds float64
	for seed := uint64(0); seed < seeds; seed++ {
		pop := NewDenseInit(n, func(k int) bitmask.State {
			var s bitmask.State
			switch {
			case k < nA:
				s = a.Set(s, true)
			case k < nA+nB:
				s = b.Set(s, true)
			}
			return s
		})
		r := NewRunner(p, pop, NewRNG(seed))
		trB := r.Track("B", bitmask.Is(b))
		rounds, ok := r.RunUntil(func(*Runner) bool { return trB.Count() == 0 }, 1, 1e6)
		if !ok {
			t.Fatalf("dense run %d did not absorb", seed)
		}
		if pop.Count(gA) != nA-nB {
			t.Fatalf("dense survivors = %d, want %d", pop.Count(gA), nA-nB)
		}
		denseRounds += rounds
	}
	sA := a.Set(bitmask.State{}, true)
	sB := b.Set(bitmask.State{}, true)
	for seed := uint64(100); seed < 100+seeds; seed++ {
		pop := NewCounted(map[bitmask.State]int64{
			sA: nA, sB: nB, {}: n - nA - nB,
		})
		br := NewCountedRunner(p, pop, NewRNG(seed), math.Inf(1))
		rounds, ok := br.RunTracked(func() bool { return pop.Count(gB) == 0 }, 1e6)
		if !ok {
			t.Fatalf("counted run %d did not absorb", seed)
		}
		if pop.Count(gA) != nA-nB {
			t.Fatalf("counted survivors = %d, want %d", pop.Count(gA), nA-nB)
		}
		countRounds += rounds
	}
	denseMean := denseRounds / seeds
	countMean := countRounds / seeds
	// The two engines simulate the same chain; their mean absorption times
	// must agree within sampling error (generous 35% tolerance).
	if math.Abs(denseMean-countMean) > 0.35*math.Max(denseMean, countMean) {
		t.Errorf("absorption time mismatch: dense %.1f vs counted %.1f rounds", denseMean, countMean)
	}
}

func TestLeapStepSilentDetection(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(a), bitmask.Is(a), bitmask.IsNot(a), bitmask.Is(a))
	p := CompileProtocol(rs)
	sA := a.Set(bitmask.State{}, true)
	pop := NewCounted(map[bitmask.State]int64{sA: 1, {}: 99})
	br := NewCountedRunner(p, pop, NewRNG(1), math.Inf(1))
	// Only one A agent: the rule (A)+(A) can never fire.
	if br.LeapStep(0) {
		t.Error("LeapStep fired in a silent configuration")
	}
}

func TestLeapStepHonorsBudget(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(a), bitmask.Is(a), bitmask.IsNot(a), bitmask.Is(a))
	p := CompileProtocol(rs)
	sA := a.Set(bitmask.State{}, true)
	// Two A's among 10^6: firing is rare, the budget hits first.
	pop := NewCounted(map[bitmask.State]int64{sA: 2, {}: 1_000_000 - 2})
	br := NewCountedRunner(p, pop, NewRNG(1), math.Inf(1))
	const budget = 1000
	if !br.LeapStep(budget) {
		t.Fatal("LeapStep reported silence with a fireable rule")
	}
	if br.Interactions > budget {
		t.Errorf("Interactions = %d exceeds budget %d", br.Interactions, budget)
	}
}

// TestBoundReachedDrawsNothing pins the bound rule LeapStep and RunBatch
// share on both tiers: a runner already at its interaction bound returns
// alive without consuming RNG output, whether its next step would be a
// leap (batch) or an aggregate step (q·E[ℓ] ≈ 160 here).
func TestBoundReachedDrawsNothing(t *testing.T) {
	proto, infected, healthy, _ := aggEpidemicProtocol()
	const n, bound = 1 << 20, 5000
	for _, minRun := range []float64{math.Inf(1), DefaultMinRunFirings} {
		pop := NewCounted(map[bitmask.State]int64{infected: n / 2, healthy: n / 2})
		r := NewCountedRunner(proto, pop, NewRNG(3), minRun)
		if _, alive := r.RunBatch(math.MaxUint64, bound); !alive || r.Interactions != bound {
			t.Fatalf("minRun=%v: RunBatch stopped at %d interactions (alive %v), want %d", minRun, r.Interactions, alive, bound)
		}
		rng := *r.RNG
		if !r.LeapStep(bound) {
			t.Errorf("minRun=%v: LeapStep at the bound reported silence", minRun)
		}
		if fired, alive := r.RunBatch(10, bound); fired != 0 || !alive {
			t.Errorf("minRun=%v: RunBatch at the bound = (%d, %v), want (0, true)", minRun, fired, alive)
		}
		if *r.RNG != rng || r.Interactions != bound {
			t.Errorf("minRun=%v: a step at the bound drew from the RNG or moved to %d interactions", minRun, r.Interactions)
		}
	}
}

// TestLeapMatchesTheory checks the geometric leap against the closed form:
// in the pure coalescence protocol (L)+(L) → (L)+(¬L), the expected number
// of interactions to go from 2 leaders to 1 is n(n−1)/2 (two specific
// agents must meet, ordered pairs both count).
func TestLeapMatchesTheory(t *testing.T) {
	sp := bitmask.NewSpace()
	l := sp.Bool("L")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(l), bitmask.Is(l), bitmask.Is(l), bitmask.IsNot(l))
	p := CompileProtocol(rs)
	sL := l.Set(bitmask.State{}, true)

	const n = 1000
	const seeds = 200
	var total float64
	for seed := uint64(0); seed < seeds; seed++ {
		pop := NewCounted(map[bitmask.State]int64{sL: 2, {}: n - 2})
		br := NewCountedRunner(p, pop, NewRNG(seed), math.Inf(1))
		if !br.LeapStep(0) {
			t.Fatal("unexpected silence")
		}
		total += float64(br.Interactions)
	}
	mean := total / seeds
	want := float64(n) * float64(n-1) / 2
	if math.Abs(mean-want) > 0.2*want {
		t.Errorf("mean interactions to coalesce = %.0f, want ≈ %.0f", mean, want)
	}
}

// TestLeapAtTinyRate covers leaps whose firing probability is below 2⁻⁵⁴,
// where 1-p rounds to 1: coalescence at n = 10⁹ from 7 leaders to 1 takes
// (n-1)·6/7 rounds in expectation, not the handful of interactions a
// zero-length leap would report.
func TestLeapAtTinyRate(t *testing.T) {
	sp := bitmask.NewSpace()
	l := sp.Bool("L")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(l), bitmask.Is(l), bitmask.Is(l), bitmask.IsNot(l))
	p := CompileProtocol(rs)
	sL := l.Set(bitmask.State{}, true)

	const n = 1_000_000_000
	const seeds = 200
	var total float64
	for seed := uint64(0); seed < seeds; seed++ {
		pop := NewCounted(map[bitmask.State]int64{sL: 7, {}: n - 7})
		br := NewCountedRunner(p, pop, NewRNG(seed), math.Inf(1))
		if fired, _ := br.RunBatch(6, 0); fired != 6 {
			t.Fatalf("seed %d: %d firings, want 6", seed, fired)
		}
		total += br.Rounds()
	}
	mean := total / seeds
	want := float64(n-1) * 6 / 7
	if math.Abs(mean-want) > 0.2*want {
		t.Errorf("mean rounds from 7 leaders to 1 = %.3g, want ≈ %.3g", mean, want)
	}
}

func TestCountedHistogramAndCompact(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	// Everyone becomes A on any interaction.
	rs.Add(bitmask.True(), bitmask.True(), bitmask.Is(a), bitmask.Is(a))
	p := CompileProtocol(rs)
	sA := a.Set(bitmask.State{}, true)
	pop := NewCounted(map[bitmask.State]int64{{}: 10, sA: 10})
	br := NewCountedRunner(p, pop, NewRNG(3), math.Inf(1))
	for i := 0; i < 200 && pop.CountState(bitmask.State{}) > 0; i++ {
		if !br.LeapStep(0) {
			break
		}
	}
	h := pop.Histogram()
	if len(h) != 1 || h[sA] != 20 {
		t.Errorf("histogram after absorption = %v", h)
	}
	if pop.NumSpecies() != 1 {
		t.Errorf("NumSpecies = %d after compaction", pop.NumSpecies())
	}
}
