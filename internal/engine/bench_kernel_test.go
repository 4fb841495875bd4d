package engine_test

import (
	"testing"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/frame"
	"popkit/internal/obs"
	"popkit/internal/protocols"
)

// Kernel step benchmarks. Each iteration is one LeapStep; for the count and
// batch runners that is one fired interaction (plus the geometric leap over
// the non-matching stretch before it), for the aggregate runner one whole
// collision-free run. Since the units of work differ, every benchmark also
// reports ns/interaction — simulated scheduler activations per wall-clock
// nanosecond — which is the number the kernels compete on and the one
// benchdiff gates.

// reportPerInteraction normalizes the timed section by the interactions
// simulated inside it.
func reportPerInteraction(b *testing.B, interactions uint64) {
	if interactions > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(interactions), "ns/interaction")
	}
}

// e11Horizon bounds each E11 trajectory at 20n interactions. Without a
// bound, a trajectory driven to silence spends almost all its interactions
// inside a handful of tail leaps (q → Θ(1/n) during the final
// annihilations), and ns/interaction degenerates into a noisy measure of
// how many tails fit in b.N — the horizon keeps the metric on the active
// phase, matching how popbench -kernel measures the crossover table.
const e11Horizon = 20

// BenchmarkCountStep drives the counted kernel on the E11 4-state
// exact-majority baseline [DV12] at n = 10^6, gap 1 — the workload whose
// Θ(n log n) round count makes per-firing cost the wall-clock bottleneck.
func BenchmarkCountStep(b *testing.B) {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	const n = 1_000_000
	rng := engine.NewRNG(1)
	pop := em.Population(n/2+1, n/2)
	cr := engine.NewCountRunner(proto, pop, rng)
	var interactions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cr.LeapStep(e11Horizon*n) || cr.Interactions >= e11Horizon*n {
			b.StopTimer()
			interactions += cr.Interactions
			pop = em.Population(n/2+1, n/2)
			cr = engine.NewCountRunner(proto, pop, rng)
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportPerInteraction(b, interactions+cr.Interactions)
}

// BenchmarkBatchStep is BenchmarkCountStep on the batched runner: same
// chain, same workload, but forced picks skip their RNG draws.
func BenchmarkBatchStep(b *testing.B) {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	const n = 1_000_000
	rng := engine.NewRNG(1)
	pop := em.Population(n/2+1, n/2)
	br := engine.NewBatchRunner(proto, pop, rng)
	var interactions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !br.LeapStep(e11Horizon*n) || br.Interactions >= e11Horizon*n {
			b.StopTimer()
			interactions += br.Interactions
			pop = em.Population(n/2+1, n/2)
			br = engine.NewBatchRunner(proto, pop, rng)
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportPerInteraction(b, interactions+br.Interactions)
}

// BenchmarkBatchStepCoalescence drives the single-rule coalescence
// protocol, where every pick is forced and the batch runner's fast paths
// carry the entire firing.
func BenchmarkBatchStepCoalescence(b *testing.B) {
	cl := baseline.NewCoalescenceLeader()
	proto := engine.CompileProtocol(cl.Rules())
	const n = 1_000_000
	rng := engine.NewRNG(1)
	pop := cl.Population(n)
	br := engine.NewBatchRunner(proto, pop, rng)
	var interactions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !br.LeapStep(0) {
			b.StopTimer()
			interactions += br.Interactions
			pop = cl.Population(n)
			br = engine.NewBatchRunner(proto, pop, rng)
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportPerInteraction(b, interactions+br.Interactions)
}

// BenchmarkAggregateStep drives the aggregate kernel on the same E11
// workload at n = 10^8 — the regime the run-length decomposition exists
// for: each step resolves a whole collision-free run (≈ 0.63·√n ≈ 6300
// interactions here) through hypergeometric composition and binomial
// chains, so ns/interaction is the meaningful number, not ns/op.
func BenchmarkAggregateStep(b *testing.B) {
	em := baseline.NewExactMajority4()
	proto := engine.CompileProtocol(em.Rules())
	const n = 100_000_000
	rng := engine.NewRNG(1)
	pop := em.Population(n/2+1, n/2)
	ar := engine.NewAggregateRunner(proto, pop, rng)
	var interactions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ar.LeapStep(e11Horizon*n) || ar.Interactions >= e11Horizon*n {
			b.StopTimer()
			interactions += ar.Interactions
			pop = em.Population(n/2+1, n/2)
			ar = engine.NewAggregateRunner(proto, pop, rng)
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportPerInteraction(b, interactions+ar.Interactions)
}

// BenchmarkDenseStep drives the per-agent dense kernel through the loops
// serving runs, on the two kinds of job it carries: a counted protocol
// below the dense crossover and a framework program, whose every leaf runs
// on engine.Runner.
func BenchmarkDenseStep(b *testing.B) {
	b.Run("approxmajority-n800", benchDenseApproxMajority)
	b.Run("majority-frame-n4400", benchDenseMajorityFrame)
}

// benchDenseApproxMajority runs the 3-state approximate majority at n = 800,
// gap 1, as the serving registry does: trackers on both opinions and the
// stop condition handed to RunTracked. Each iteration advances one parallel
// round; converged populations are rebuilt outside the timer.
func benchDenseApproxMajority(b *testing.B) {
	am := baseline.NewApproxMajority()
	proto := engine.CompileProtocol(am.Rules())
	const n, gap = 800, 1
	nB := (n - gap) / 2
	sA := am.A.Set(bitmask.State{}, true)
	sB := am.B.Set(bitmask.State{}, true)
	rng := engine.NewRNG(1)
	var r *engine.Runner
	var done func() bool
	build := func() {
		pop := engine.NewDenseInit(n, func(i int) bitmask.State {
			if i < n-nB {
				return sA
			}
			return sB
		})
		r = engine.NewRunner(proto, pop, rng)
		ta := r.Track("A", bitmask.Is(am.A))
		tb := r.Track("B", bitmask.Is(am.B))
		done = func() bool { return ta.Count() == 0 || tb.Count() == 0 }
	}
	build()
	var interactions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.RunTracked(done, 1); ok {
			b.StopTimer()
			interactions += r.Interactions
			build()
			b.StartTimer()
		}
	}
	b.StopTimer()
	reportPerInteraction(b, interactions+r.Interactions)
}

// benchDenseMajorityFrame runs the framework Majority program (§3.2) at
// n = 4400, gap 1 — every leaf an engine.Runner execution. Each iteration
// is one framework iteration, bookkeeping leaves included; the executor is
// rebuilt outside the timer every three iterations (the shape converges in
// three), and interactions are summed from the leaves' trace events.
func benchDenseMajorityFrame(b *testing.B) {
	const n, gap = 4400, 1
	prog := protocols.Majority(2)
	var e *frame.Executor
	var tr *obs.Trace
	var interactions uint64
	seed := uint64(0)
	drain := func() {
		if tr == nil {
			return
		}
		if tr.Dropped() > 0 {
			b.Fatal("leaf trace overflowed")
		}
		for _, ev := range tr.Events() {
			if ev.Kind == "leaf" {
				interactions += uint64(ev.Value)
			}
		}
	}
	build := func() {
		drain()
		seed++
		var err error
		if e, err = frame.New(prog, n, seed); err != nil {
			b.Fatal(err)
		}
		tr = obs.NewTrace(1 << 16)
		e.Trace = tr
		a, _ := e.Space.LookupVar("A")
		bv, _ := e.Space.LookupVar("B")
		nA := n - (n-gap)/2
		e.SetInput(func(i int, s bitmask.State) bitmask.State {
			if i < nA {
				return a.Set(s, true)
			}
			return bv.Set(s, true)
		})
	}
	build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Iterations == 3 {
			b.StopTimer()
			build()
			b.StartTimer()
		}
		e.RunIteration()
	}
	b.StopTimer()
	drain()
	reportPerInteraction(b, interactions)
}
