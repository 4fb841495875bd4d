package expt

import (
	"fmt"
	"math"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/frame"
	"popkit/internal/protocols"
	"popkit/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Claim: "Comparison vs prior work (§1.2): approx-majority fails on small gaps, 4-state exact majority pays Θ(n log n), coalescence LE pays Θ(n); the framework protocols stay polylog and correct",
		Run:   runE11,
	})
}

func runE11(cfg Config) Result {
	seeds := cfg.Seeds
	if seeds > 10 {
		seeds = 10
	}
	var interactions uint64

	// Table 1: majority correctness at gap 1 vs gap √(n log n).
	t1 := stats.NewTable("E11a — Majority correctness by gap",
		"protocol", "n", "gap", "correct runs", "mean rounds")
	nMaj := 10000
	if cfg.Quick {
		nMaj = 4000
	}
	bigGap := int(math.Sqrt(float64(nMaj) * math.Log(float64(nMaj))))
	for _, gap := range []int{1, bigGap} {
		// 3-state approximate majority, on the fastest admissible counted
		// runner; the stop condition reads incremental trackers so the
		// kernel skips its re-evaluation while no opinion count moves.
		am := baseline.NewApproxMajority()
		proto := engine.CompileProtocol(am.Rules())
		sA := am.A.Set(bitmask.State{}, true)
		sB := am.B.Set(bitmask.State{}, true)
		correct := 0
		var rounds []float64
		for s := 0; s < seeds; s++ {
			counts := map[bitmask.State]int64{sA: int64(nMaj/2 + gap), sB: int64(nMaj / 2)}
			drv := NewDriver(proto, counts, engine.NewRNG(cfg.BaseSeed+uint64(gap+s)), RunnerHints{})
			ta := drv.Track("A", bitmask.Is(am.A))
			tb := drv.Track("B", bitmask.Is(am.B))
			r, ok := drv.RunUntil(func() bool {
				return ta.Count() == 0 || tb.Count() == 0
			}, 1e6)
			if ok && ta.Count() > 0 && tb.Count() == 0 {
				correct++
			}
			rounds = append(rounds, r)
			interactions += drv.Interactions()
		}
		t1.AddRow("3-state approx [AAE08a]", nMaj, gap,
			fmt.Sprintf("%d/%d", correct, seeds), stats.Summarize(rounds).Mean)

		// Our framework majority (framework semantics).
		prog := protocols.Majority(2)
		correct = 0
		rounds = rounds[:0]
		for s := 0; s < seeds; s++ {
			e, err := frame.New(prog, nMaj, cfg.BaseSeed+uint64(97*gap+s))
			if err != nil {
				panic(err)
			}
			a, _ := e.Space.LookupVar("A")
			b, _ := e.Space.LookupVar("B")
			nA := nMaj/2 + gap
			e.SetInput(func(i int, st bitmask.State) bitmask.State {
				if i < nA {
					return a.Set(st, true)
				}
				return b.Set(st, true)
			})
			e.RunIterations(3)
			if e.CountVar("YA") == nMaj {
				correct++
			}
			rounds = append(rounds, e.Rounds)
		}
		t1.AddRow("framework Majority (§3.2)", nMaj, gap,
			fmt.Sprintf("%d/%d", correct, seeds), stats.Summarize(rounds).Mean)
	}

	// Table 2: exact-majority time scaling at gap 1.
	t2 := stats.NewTable("E11b — Exact majority time at gap 1",
		"protocol", "n", "mean rounds", "rounds/(n ln n)", "rounds/ln³n")
	sizes := []int64{1000, 4000, 16000}
	if cfg.Quick {
		sizes = []int64{1000, 4000}
	}
	em := baseline.NewExactMajority4()
	emProto := engine.CompileProtocol(em.Rules())
	emA := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
	emB := em.Strong.Set(bitmask.State{}, true)
	for _, n := range sizes {
		var rounds []float64
		for s := 0; s < seeds && s < 5; s++ {
			counts := map[bitmask.State]int64{emA: n/2 + 1, emB: n / 2}
			drv := NewDriver(emProto, counts, engine.NewRNG(cfg.BaseSeed+uint64(n)+uint64(s)), RunnerHints{})
			// The annihilation rule preserves the opinion split, so the
			// tracked count sits still through the whole Θ(n log n)
			// annihilation phase and the condition is skipped with it.
			ta := drv.Track("A", bitmask.Is(em.IsA))
			r, _ := drv.RunUntil(func() bool {
				a := ta.Count()
				return a == 0 || a == n
			}, 1e9)
			rounds = append(rounds, r)
			interactions += drv.Interactions()
		}
		m := stats.Summarize(rounds).Mean
		logn := math.Log(float64(n))
		t2.AddRow("4-state exact [DV12]", n, m, m/(float64(n)*logn), m/math.Pow(logn, 3))
	}
	for _, n := range sizes {
		prog := protocols.MajorityExact(2)
		var rounds []float64
		for s := 0; s < seeds && s < 3; s++ {
			e, err := frame.New(prog, int(n), cfg.BaseSeed+uint64(3*n)+uint64(s))
			if err != nil {
				panic(err)
			}
			a, _ := e.Space.LookupVar("A")
			b, _ := e.Space.LookupVar("B")
			at, _ := e.Space.LookupVar("At")
			bt, _ := e.Space.LookupVar("Bt")
			nA := int(n)/2 + 1
			e.SetInput(func(i int, st bitmask.State) bitmask.State {
				if i < nA {
					st = a.Set(st, true)
					return at.Set(st, true)
				}
				st = b.Set(st, true)
				return bt.Set(st, true)
			})
			// Measure w.h.p. convergence of the output (the fast path),
			// not token exhaustion (the slow certainty tail).
			e.RunIterations(3)
			rounds = append(rounds, e.Rounds)
		}
		m := stats.Summarize(rounds).Mean
		logn := math.Log(float64(n))
		t2.AddRow("framework MajorityExact (§6.2, w.h.p. path)", n, m, m/(float64(n)*logn), m/math.Pow(logn, 3))
	}

	// Table 3: leader election time scaling.
	t3 := stats.NewTable("E11c — Leader election time",
		"protocol", "n", "mean rounds", "rounds/n", "rounds/ln²n")
	cl := baseline.NewCoalescenceLeader()
	clProto := engine.CompileProtocol(cl.Rules())
	clL := cl.L.Set(bitmask.State{}, true)
	for _, n := range sizes {
		var rounds []float64
		for s := 0; s < seeds && s < 5; s++ {
			counts := map[bitmask.State]int64{clL: n}
			drv := NewDriver(clProto, counts, engine.NewRNG(cfg.BaseSeed+uint64(7*n)+uint64(s)), RunnerHints{})
			tl := drv.Track("L", bitmask.Is(cl.L))
			r, _ := drv.RunUntil(func() bool { return tl.Count() == 1 }, 1e9)
			rounds = append(rounds, r)
			interactions += drv.Interactions()
		}
		m := stats.Summarize(rounds).Mean
		logn := math.Log(float64(n))
		t3.AddRow("coalescence (folklore)", n, m, m/float64(n), m/(logn*logn))
	}
	prog := protocols.LeaderElection()
	for _, n := range sizes {
		var rounds []float64
		for s := 0; s < seeds && s < 5; s++ {
			e, err := frame.New(prog, int(n), cfg.BaseSeed+uint64(11*n)+uint64(s))
			if err != nil {
				panic(err)
			}
			e.RunUntil(func(e *frame.Executor) bool { return e.CountVar("L") == 1 }, 1000)
			rounds = append(rounds, e.Rounds)
		}
		m := stats.Summarize(rounds).Mean
		logn := math.Log(float64(n))
		t3.AddRow("framework LeaderElection (§3.1)", n, m, m/float64(n), m/(logn*logn))
	}

	return Result{Tables: []*stats.Table{t1, t2, t3}, Interactions: interactions}
}
