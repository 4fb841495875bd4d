package protocols_test

// Statistical equivalence suite for the related-work protocols, mirroring
// the engine's batch_equiv suite: the counted kernels (batch, aggregate)
// skip RNG draws whose outcome is forced, so their streams differ from the
// dense Runner's — the contract is equality in
// distribution. Hitting times are compared with the two-sample KS statistic
// and categorical outcomes with a chi-square homogeneity statistic, at
// fixed seed banks so the tests are deterministic. Alongside, the suite
// enforces the exactness contract: at the adversarial margin |A−B| = 1 the
// majority protocols must decide for the true majority on EVERY seed and
// kernel — their conserved weighted opinion sum admits no failure
// probability for correctness, only randomness in when and through which
// token configurations they converge.

import (
	"math"
	"sort"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	. "popkit/internal/protocols"
	"popkit/internal/rules"
	"popkit/internal/stats"
)

const (
	equivSeeds = 100
	// Two-sample KS critical value at α = 0.001 for 100-vs-100 samples:
	// 1.95·√(2/100) ≈ 0.276.
	ksCrit = 0.28
	// χ² critical value at α = 0.001 for 2 degrees of freedom (2 kernels ×
	// 3 outcome buckets).
	chiCrit = 13.82
)

// majoritySpec is one majority protocol prepared for the kernel matrix:
// a ruleset, an |A−B| = 1 initial population, and the three tracked
// formulas the stop condition reads.
type majoritySpec struct {
	rs     *rules.Ruleset
	counts map[bitmask.State]int64
	tokA   bitmask.Formula // surviving A tokens
	tokB   bitmask.Formula // surviving B tokens
	out    bitmask.Formula // agents outputting "A won"
}

func cdSpec(n int) majoritySpec {
	m := NewCDMajority(n)
	return majoritySpec{
		rs:     m.Rules(),
		counts: m.InitCounts(int64(n/2+1), int64(n/2)),
		tokA:   bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)),
		tokB:   bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)),
		out:    bitmask.Is(m.Out),
	}
}

func prSpec(n int) majoritySpec {
	m := NewPRMajority(n)
	return majoritySpec{
		rs:     m.Rules(),
		counts: m.InitCounts(int64(n/2+1), int64(n/2)),
		tokA:   bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)),
		tokB:   bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)),
		out:    bitmask.Is(m.Out),
	}
}

// layoutDense places counts into dense agent slots in sorted state order —
// the same (Hi, Lo) order expt.NewDriver uses.
func layoutDense(pop *engine.Dense, counts map[bitmask.State]int64) {
	states := make([]bitmask.State, 0, len(counts))
	for s := range counts {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Lo < b.Lo
	})
	i := 0
	for _, s := range states {
		for j := int64(0); j < counts[s]; j++ {
			pop.SetAgent(i, s)
			i++
		}
	}
}

// majorityTimes runs one majority spec across the seed bank on the given
// kernel. Returns hitting times, surviving majority-token counts at the
// decision instant (the categorical outcome for the chi-square test), and
// how many seeds decided for the true majority (A).
func majorityTimes(t *testing.T, build func() majoritySpec, kind string, seedRoot uint64) (times []float64, survivors []int64, correct int) {
	t.Helper()
	for seed := uint64(0); seed < equivSeeds; seed++ {
		spec := build()
		var n int64
		for _, k := range spec.counts {
			n += k
		}
		proto := engine.CompileProtocol(spec.rs)
		rng := engine.NewRNG(engine.SplitSeed(seedRoot, seed))
		var rounds float64
		var ok bool
		var a, b, o func() int64
		done := func() bool {
			return (b() == 0 && o() == n) || (a() == 0 && o() == 0)
		}
		switch kind {
		case "dense":
			pop := engine.NewDense(int(n))
			layoutDense(pop, spec.counts)
			run := engine.NewRunner(proto, pop, rng)
			ta, tb, to := run.Track("a", spec.tokA), run.Track("b", spec.tokB), run.Track("o", spec.out)
			a = func() int64 { return ta.Count() }
			b = func() int64 { return tb.Count() }
			o = func() int64 { return to.Count() }
			maxSteps := uint64(2e6) * uint64(n)
			for step := uint64(0); step < maxSteps; step++ {
				if done() {
					ok = true
					break
				}
				run.Step()
			}
			rounds = run.Rounds()
		case "batch":
			pop := engine.NewCounted(spec.counts)
			run := engine.NewCountedRunner(proto, pop, rng, math.Inf(1))
			ta, tb, to := run.Track("a", spec.tokA), run.Track("b", spec.tokB), run.Track("o", spec.out)
			a = func() int64 { return ta.Count() }
			b = func() int64 { return tb.Count() }
			o = func() int64 { return to.Count() }
			rounds, ok = run.RunTracked(done, 2e6)
		case "aggregate":
			pop := engine.NewCounted(spec.counts)
			// Force the run-decomposition path at these small n (leap steps
			// alone would make it identical to the batch tier).
			run := engine.NewCountedRunner(proto, pop, rng, 0)
			ta, tb, to := run.Track("a", spec.tokA), run.Track("b", spec.tokB), run.Track("o", spec.out)
			a = func() int64 { return ta.Count() }
			b = func() int64 { return tb.Count() }
			o = func() int64 { return to.Count() }
			rounds, ok = run.RunTracked(done, 2e6)
		}
		if !ok {
			t.Fatalf("%s: seed %d did not converge", kind, seed)
		}
		times = append(times, rounds)
		if b() == 0 && o() == n {
			correct++
			survivors = append(survivors, a())
		} else {
			survivors = append(survivors, b())
		}
	}
	return times, survivors, correct
}

func requireKS(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if d := stats.KS(a, b); d > ksCrit {
		t.Errorf("%s: KS statistic %.3f exceeds %.3f", label, d, ksCrit)
	}
}

// bucketSurvivors folds surviving-token counts into {1, 2, ≥3} categories.
func bucketSurvivors(survivors []int64) []int64 {
	row := make([]int64, 3)
	for _, s := range survivors {
		switch {
		case s <= 1:
			row[0]++
		case s == 2:
			row[1]++
		default:
			row[2]++
		}
	}
	return row
}

func requireChiSquare(t *testing.T, label string, rows ...[]int64) {
	t.Helper()
	if chi := stats.ChiSquareHomogeneity(rows); chi > chiCrit {
		t.Errorf("%s: chi-square %.2f exceeds %.2f (rows %v)", label, chi, chiCrit, rows)
	}
}

// runMajorityEquiv drives one majority protocol through the full kernel
// matrix and applies the KS, chi-square, and correctness gates.
func runMajorityEquiv(t *testing.T, name string, build func() majoritySpec, seedRoot uint64) {
	dense, sDense, cDense := majorityTimes(t, build, "dense", seedRoot)
	batch, sBatch, cBatch := majorityTimes(t, build, "batch", seedRoot)
	agg, sAgg, cAgg := majorityTimes(t, build, "aggregate", seedRoot)

	requireKS(t, name+" dense-vs-batch", dense, batch)
	requireKS(t, name+" batch-vs-aggregate", batch, agg)
	requireKS(t, name+" dense-vs-aggregate", dense, agg)

	// The surviving-token distribution at the decision instant is a second,
	// time-independent fingerprint of the dynamics: kernels must agree on it
	// too, not just on when they finish.
	requireChiSquare(t, name+" survivors dense-vs-batch", bucketSurvivors(sDense), bucketSurvivors(sBatch))
	requireChiSquare(t, name+" survivors batch-vs-aggregate", bucketSurvivors(sBatch), bucketSurvivors(sAgg))

	// Correctness-probability lower bound at the adversarial |A−B| = 1
	// margin: the conserved weighted sum makes these protocols exact, so
	// the bound is 1 — a single wrong decision on any kernel is a bug.
	for _, c := range []struct {
		kernel  string
		correct int
	}{{"dense", cDense}, {"batch", cBatch}, {"aggregate", cAgg}} {
		if c.correct != equivSeeds {
			t.Errorf("%s on %s: %d/%d seeds decided for the true majority; exact majority admits no errors",
				name, c.kernel, c.correct, equivSeeds)
		}
	}
}

func TestCDMajorityKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	runMajorityEquiv(t, "cdmajority", func() majoritySpec { return cdSpec(401) }, 90210)
}

func TestPRMajorityKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	runMajorityEquiv(t, "prmajority", func() majoritySpec { return prSpec(401) }, 60601)
}

// TestGS18KernelEquivalence compares the junta-clocked leader election on
// the dense and batch kernels over a fixed 250-round horizon. GS18 is
// state-rich (species grow toward n as agents' rank/clock/oscillator
// fields diverge), so production runs pin the dense runner via
// expt.RunnerHints — but the ruleset is flat, so the batch kernel is still
// *admissible*, and distributional equivalence on it is exactly the test
// that the StateRich hint is a performance choice, not a correctness one.
// The horizon is fixed rather than run-to-convergence because the batch
// kernel's per-firing cost grows with the live species count: full
// convergence on batch is exactly the pathology StateRich exists to avoid
// (measured minutes per seed, vs milliseconds for this horizon). Within
// the horizon the composed dynamics are in full swing — junta coin flips,
// max-rank propagation, one-shot demotion, the epidemics — and the
// surviving-candidate and still-flipping counts fingerprint them: both
// must be distributed identically across kernels (KS), as must the
// candidate count's pooled-median split (chi-square).
func TestGS18KernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	const (
		n        = 256
		horizon  = 250
		gsSeeds  = 60
		seedRoot = 1802
		// 1.95·√(2/60) ≈ 0.356 at α = 0.001 for 60-vs-60.
		gsKSCrit = 0.36
	)
	run := func(kind string) (leaders, flipping []float64) {
		for seed := uint64(0); seed < gsSeeds; seed++ {
			g := NewGS18Leader(n)
			rng := engine.NewRNG(engine.SplitSeed(seedRoot, seed))
			counts := g.InitCounts(n, rng)
			proto := engine.CompileProtocol(g.Rules())
			isL, isF := bitmask.Is(g.L), bitmask.Is(g.Junta.Flipping)
			if kind == "dense" {
				pop := engine.NewDense(n)
				layoutDense(pop, counts)
				r := engine.NewRunner(proto, pop, rng)
				tl, tf := r.Track("l", isL), r.Track("f", isF)
				for step := 0; step < horizon*n; step++ {
					r.Step()
				}
				leaders = append(leaders, float64(tl.Count()))
				flipping = append(flipping, float64(tf.Count()))
			} else {
				pop := engine.NewCounted(counts)
				r := engine.NewCountedRunner(proto, pop, rng, math.Inf(1))
				tl, tf := r.Track("l", isL), r.Track("f", isF)
				r.RunTracked(func() bool { return false }, horizon)
				leaders = append(leaders, float64(tl.Count()))
				flipping = append(flipping, float64(tf.Count()))
			}
		}
		return leaders, flipping
	}
	denseL, denseF := run("dense")
	batchL, batchF := run("batch")
	if d := stats.KS(denseL, batchL); d > gsKSCrit {
		t.Errorf("gs18leader candidates dense-vs-batch: KS statistic %.3f exceeds %.3f", d, gsKSCrit)
	}
	if d := stats.KS(denseF, batchF); d > gsKSCrit {
		t.Errorf("gs18leader flipping dense-vs-batch: KS statistic %.3f exceeds %.3f", d, gsKSCrit)
	}
	// Pooled-median split of the candidate count: both kernels must land
	// above/below it at the same rate (χ² at 1 df, α = 0.001 ⟹ 10.83).
	pooled := append(append([]float64(nil), denseL...), batchL...)
	sort.Float64s(pooled)
	median := pooled[len(pooled)/2]
	split := func(xs []float64) []int64 {
		row := make([]int64, 2)
		for _, x := range xs {
			if x < median {
				row[0]++
			} else {
				row[1]++
			}
		}
		return row
	}
	if chi := stats.ChiSquareHomogeneity([][]int64{split(denseL), split(batchL)}); chi > 10.83 {
		t.Errorf("gs18leader median-split dense-vs-batch: chi-square %.2f exceeds 10.83", chi)
	}
}
