package engine_test

import (
	"math"
	"sort"
	"testing"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

// Statistical equivalence suite: the counted tiers skip RNG draws whose
// outcome is forced, so their streams differ from Runner's — the claim is
// equality in distribution, not per-seed equality. Each test runs the same
// protocol under all three tiers across a bank of seeds and
// compares hitting-time distributions with a two-sample KS statistic (and
// outcome frequencies with a chi-square statistic where the outcome is
// random). Seeds are fixed, so the tests are deterministic; the thresholds
// sit above the α = 0.001 critical values for the sample sizes used,
// chosen so that a genuine distributional bug (off-by-one in the leap, a
// biased pick) trips them while correct kernels pass with margin.

const equivSeeds = 150

// ksCrit is the two-sample KS threshold for 150-vs-150 samples: the
// α = 0.001 critical value is 1.95·√(2/150) ≈ 0.225.
const ksCrit = 0.25

// ksStat computes the two-sample Kolmogorov–Smirnov statistic.
func ksStat(xs, ys []float64) float64 {
	x := append([]float64(nil), xs...)
	y := append([]float64(nil), ys...)
	sort.Float64s(x)
	sort.Float64s(y)
	var d float64
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if x[i] <= y[j] {
			i++
		} else {
			j++
		}
		if gap := math.Abs(float64(i)/float64(len(x)) - float64(j)/float64(len(y))); gap > d {
			d = gap
		}
	}
	return d
}

// hitSpec is one (protocol, stop condition) hitting-time experiment small
// enough to run under every scheduler: track counts the given formulas,
// done reads them (plus n) and decides whether the target configuration is
// reached.
type hitSpec struct {
	proto     *engine.Protocol
	counts    map[bitmask.State]int64
	track     []bitmask.Formula
	done      func(get func(i int) int64, n int64) bool
	maxRounds float64
	seedRoot  uint64
}

func (hs hitSpec) n() int64 {
	var n int64
	for _, k := range hs.counts {
		n += k
	}
	return n
}

// denseTimes measures hitting times under the dense per-interaction Runner.
func denseTimes(t *testing.T, hs hitSpec) []float64 {
	t.Helper()
	n := hs.n()
	times := make([]float64, 0, equivSeeds)
	for seed := uint64(0); seed < equivSeeds; seed++ {
		pop := engine.NewDense(int(n))
		i := 0
		for s, k := range hs.counts {
			for j := int64(0); j < k; j++ {
				pop.SetAgent(i, s)
				i++
			}
		}
		run := engine.NewRunner(hs.proto, pop, engine.NewRNG(engine.SplitSeed(hs.seedRoot, seed)))
		trs := make([]*engine.Tracker, len(hs.track))
		for ti, f := range hs.track {
			trs[ti] = run.Track("t", f)
		}
		get := func(i int) int64 { return trs[i].Count() }
		steps := uint64(hs.maxRounds * float64(n))
		ok := false
		for step := uint64(0); step < steps; step++ {
			if hs.done(get, n) {
				ok = true
				break
			}
			run.Step()
		}
		if !ok && !hs.done(get, n) {
			t.Fatalf("Runner: seed %d did not converge within %.0f rounds", seed, hs.maxRounds)
		}
		times = append(times, run.Rounds())
	}
	return times
}

// countedTimes measures hitting times under one of the counted kernels
// ("batch" or "aggregate"), through the tracker-gated RunTracked path. Leap
// steps alone would make the aggregate tier identical to the batch tier at
// these population sizes, so MinRunFirings is forced to 0 — every step
// exercises the run-decomposition path under test.
func countedTimes(t *testing.T, hs hitSpec, kind string) []float64 {
	t.Helper()
	times := make([]float64, 0, equivSeeds)
	for seed := uint64(0); seed < equivSeeds; seed++ {
		pop := engine.NewCounted(hs.counts)
		rng := engine.NewRNG(engine.SplitSeed(hs.seedRoot, seed))
		n := pop.N64()
		var run engine.Kernel
		if kind == "aggregate" {
			run = engine.NewCountedRunner(hs.proto, pop, rng, 0)
		} else {
			run = engine.NewCountedRunner(hs.proto, pop, rng, math.Inf(1))
		}
		trs := make([]*engine.Tracker, len(hs.track))
		for ti, f := range hs.track {
			trs[ti] = run.Track("t", f)
		}
		get := func(i int) int64 { return trs[i].Count() }
		rounds, ok := run.RunTracked(func() bool { return hs.done(get, n) }, hs.maxRounds)
		if !ok {
			t.Fatalf("%s: seed %d did not converge within %.0f rounds", kind, seed, hs.maxRounds)
		}
		times = append(times, rounds)
	}
	return times
}

func requireKS(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if d := ksStat(a, b); d > ksCrit {
		t.Errorf("%s: KS statistic %.3f exceeds %.3f", label, d, ksCrit)
	}
}

// TestBatchEquivCoalescence compares leader-coalescence hitting times
// (leaders == 1) at n = 256 across all three kernels. Coalescence has a
// single rule, so the leap step's deterministic-rule fast path carries the
// whole run.
func TestBatchEquivCoalescence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	cl := baseline.NewCoalescenceLeader()
	leader := cl.L.Set(bitmask.State{}, true)
	hs := hitSpec{
		proto:     engine.CompileProtocol(cl.Rules()),
		counts:    map[bitmask.State]int64{leader: 256},
		track:     []bitmask.Formula{bitmask.Is(cl.L)},
		done:      func(get func(int) int64, n int64) bool { return get(0) == 1 },
		maxRounds: 100_000,
		seedRoot:  12345,
	}
	dense := denseTimes(t, hs)
	batch := countedTimes(t, hs, "batch")
	agg := countedTimes(t, hs, "aggregate")
	requireKS(t, "coalescence dense-vs-batch", dense, batch)
	requireKS(t, "coalescence batch-vs-aggregate", batch, agg)
	requireKS(t, "coalescence dense-vs-aggregate", dense, agg)
}

// TestBatchEquivExactMajority compares decision times of the 4-state exact
// majority at n = 128, gap 4, and checks that every kernel decides for the
// true majority on every seed (the protocol is always correct).
func TestBatchEquivExactMajority(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	em := baseline.NewExactMajority4()
	sA := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
	sB := em.Strong.Set(bitmask.State{}, true)
	hs := hitSpec{
		proto:  engine.CompileProtocol(em.Rules()),
		counts: map[bitmask.State]int64{sA: 66, sB: 62},
		track:  []bitmask.Formula{bitmask.Is(em.IsA)},
		done: func(get func(int) int64, n int64) bool {
			a := get(0)
			if a == 0 {
				panic("exact majority decided for the minority")
			}
			return a == n
		},
		maxRounds: 100_000,
		seedRoot:  777,
	}
	dense := denseTimes(t, hs)
	batch := countedTimes(t, hs, "batch")
	agg := countedTimes(t, hs, "aggregate")
	requireKS(t, "exact-majority dense-vs-batch", dense, batch)
	requireKS(t, "exact-majority batch-vs-aggregate", batch, agg)
	requireKS(t, "exact-majority dense-vs-aggregate", dense, agg)
}

// TestBatchEquivApproxMajorityOutcome runs the 3-state approximate
// majority at n = 128 with a gap too small to guarantee correctness, so
// the winner is genuinely random, and compares both the winner frequencies
// (chi-square) and the convergence-time distributions across the three
// kernels.
func TestBatchEquivApproxMajorityOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	am := baseline.NewApproxMajority()
	sA := am.A.Set(bitmask.State{}, true)
	sB := am.B.Set(bitmask.State{}, true)
	proto := engine.CompileProtocol(am.Rules())

	sample := func(kind string) (aWins int, times []float64) {
		for seed := uint64(0); seed < equivSeeds; seed++ {
			counts := map[bitmask.State]int64{sA: 66, sB: 62}
			rng := engine.NewRNG(engine.SplitSeed(999, seed))
			var run engine.Kernel
			switch kind {
			case "batch":
				run = engine.NewCountedRunner(proto, engine.NewCounted(counts), rng, math.Inf(1))
			case "aggregate":
				run = engine.NewCountedRunner(proto, engine.NewCounted(counts), rng, 0)
			default:
				pop := engine.NewDenseInit(128, func(i int) bitmask.State {
					if i < 66 {
						return sA
					}
					return sB
				})
				run = engine.NewRunner(proto, pop, rng)
			}
			ta := run.Track("a", bitmask.Is(am.A))
			tb := run.Track("b", bitmask.Is(am.B))
			rounds, ok := run.RunTracked(func() bool {
				return ta.Count() == 0 || tb.Count() == 0
			}, 100_000)
			if !ok {
				t.Fatalf("seed %d did not converge", seed)
			}
			if ta.Count() > 0 {
				aWins++
			}
			times = append(times, rounds)
		}
		return aWins, times
	}

	dw, dt := sample("dense")
	bw, bt := sample("batch")
	aw, at := sample("aggregate")
	requireKS(t, "approx-majority dense-vs-batch times", dt, bt)
	requireKS(t, "approx-majority dense-vs-aggregate times", dt, at)

	// 3×2 chi-square on (runner × winner); χ²(2 dof) at α = 0.001 is 13.82.
	obs := [3][2]float64{
		{float64(dw), float64(equivSeeds - dw)},
		{float64(bw), float64(equivSeeds - bw)},
		{float64(aw), float64(equivSeeds - aw)},
	}
	var chi2 float64
	for c := 0; c < 2; c++ {
		colTot := obs[0][c] + obs[1][c] + obs[2][c]
		exp := colTot / 3
		if exp == 0 {
			continue
		}
		for r := 0; r < 3; r++ {
			chi2 += (obs[r][c] - exp) * (obs[r][c] - exp) / exp
		}
	}
	if chi2 > 13.82 {
		t.Errorf("approx-majority winner split: chi-square %.2f exceeds 13.82 (dense %d, batch %d, aggregate %d A-wins of %d)",
			chi2, dw, bw, aw, equivSeeds)
	}
}

// TestAggregateEquivFiredCounts cross-validates the aggregate kernel's
// per-rule firing accounting against the batch tier's: for a fixed interaction
// horizon of the 3-state approximate majority, each rule's firing count is
// itself a random variable whose distribution must agree between the
// kernels. The aggregate path resolves firings through hypergeometric
// composition and binomial chains rather than one pick per firing, so this
// is the test that would catch a mis-weighted chain.
func TestAggregateEquivFiredCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	am := baseline.NewApproxMajority()
	sA := am.A.Set(bitmask.State{}, true)
	sB := am.B.Set(bitmask.State{}, true)
	proto := engine.CompileProtocol(am.Rules())
	const horizon = 2048 // interactions; n=128, mid-flight (not converged)

	nRules := len(am.Rules().Rules)
	sample := func(kind string) [][]float64 {
		perRule := make([][]float64, nRules)
		for seed := uint64(0); seed < equivSeeds; seed++ {
			pop := engine.NewCounted(map[bitmask.State]int64{sA: 66, sB: 62})
			rng := engine.NewRNG(engine.SplitSeed(4242, seed))
			var fired []uint64
			var interactions uint64
			if kind == "batch" {
				run := engine.NewCountedRunner(proto, pop, rng, math.Inf(1))
				for run.Interactions < horizon {
					if !run.LeapStep(horizon) {
						break
					}
				}
				fired, interactions = run.Fired, run.Interactions
			} else {
				run := engine.NewCountedRunner(proto, pop, rng, 0)
				for run.Interactions < horizon {
					if !run.LeapStep(horizon) {
						break
					}
				}
				fired, interactions = run.Fired, run.Interactions
				var tot uint64
				for _, k := range fired {
					tot += k
				}
				if tot != run.FiredTotal {
					t.Fatalf("aggregate: Fired sums to %d but FiredTotal is %d", tot, run.FiredTotal)
				}
				if run.FiredTotal > run.Interactions {
					t.Fatalf("aggregate: %d firings exceed %d interactions", run.FiredTotal, run.Interactions)
				}
			}
			if interactions > horizon {
				t.Fatalf("%s: ran %d interactions past horizon %d", kind, interactions, horizon)
			}
			for i := 0; i < nRules; i++ {
				perRule[i] = append(perRule[i], float64(fired[i]))
			}
		}
		return perRule
	}

	batch := sample("batch")
	agg := sample("aggregate")
	for i := 0; i < nRules; i++ {
		requireKS(t, "approx-majority rule firing counts", batch[i], agg[i])
	}
}
