package expt

import (
	"fmt"
	"math"

	"popkit/internal/bitmask"
	"popkit/internal/clock"
	"popkit/internal/engine"
	"popkit/internal/osc"
	"popkit/internal/rules"
	"popkit/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "A1",
		Claim: "Ablation: the modulo-m clock needs its consensus repair — without it the population phase-splits and the clock stops ratcheting",
		Run:   runA1,
	})
	register(Experiment{
		ID:    "A2",
		Claim: "Ablation: the oscillator needs 1 ≤ #X ≤ n^(1−ε) — #X = 0 lets a species die, #X = Θ(n) suppresses dominance (Thm 5.1's hypothesis is tight)",
		Run:   runA2,
	})
	register(Experiment{
		ID:    "A3",
		Claim: "Ablation: the consensus confirmation gate — threshold 1 lets spurious early-crossers drag the counter",
		Run:   runA3,
	})
}

// ablationClockRun measures tick health for a clock variant.
func ablationClockRun(n int, opts clock.BaseOptions, seed uint64) (ticks, skips int, minPeak float64) {
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	o := osc.New(sp, "O", x, osc.DefaultParams())
	b := clock.NewBaseWithOptions(sp, "C", o, 12, 6, o.Ruleset().TotalWeight(), opts)
	proto := engine.CompileProtocol(rules.Concat(o.Ruleset(), b.Rules()))
	rng := engine.NewRNG(seed)
	nx := int(math.Sqrt(float64(n)) / 2)
	pop := engine.NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		if i < nx {
			s = x.Set(s, true)
		}
		return o.InitState(s, osc.RandSpecies(rng), false)
	})
	r := engine.NewRunner(proto, pop, rng)
	slow := float64(proto.NumSlots()) / float64(o.Ruleset().TotalWeight())
	r.RunRounds(900 * slow)
	lastPhase := -1
	peak := map[int]float64{}
	horizon := 3000 * slow
	for elapsed := 0.0; elapsed < horizon; elapsed++ {
		r.RunRounds(1)
		counts := b.PhaseCounts(pop)
		bestJ, bestC := 0, 0
		for j, c := range counts {
			if c > bestC {
				bestJ, bestC = j, c
			}
		}
		frac := float64(bestC) / float64(n)
		if frac > peak[bestJ] {
			peak[bestJ] = frac
		}
		if frac > 0.6 && bestJ != lastPhase {
			if lastPhase >= 0 && bestJ != (lastPhase+1)%12 {
				skips++
			}
			ticks++
			lastPhase = bestJ
		}
	}
	minPeak = 1
	for _, p := range peak {
		if p < minPeak {
			minPeak = p
		}
	}
	if len(peak) == 0 {
		minPeak = 0
	}
	return ticks, skips, minPeak
}

func runA1(cfg Config) Result {
	n := 2000
	tb := stats.NewTable("A1 — Clock consensus ablation",
		"variant", "n", "ticks", "skips", "min peak agreement")
	for _, v := range []struct {
		name string
		opts clock.BaseOptions
	}{
		{"with consensus (calibrated)", clock.BaseOptions{}},
		{"consensus disabled", clock.BaseOptions{DisableConsensus: true}},
	} {
		ticks, skips, minPeak := ablationClockRun(n, v.opts, cfg.BaseSeed+11)
		tb.AddRow(v.name, n, ticks, skips, minPeak)
	}
	return Result{Tables: []*stats.Table{tb}}
}

func runA2(cfg Config) Result {
	n := 5000
	if cfg.Quick {
		n = 2000
	}
	tb := stats.NewTable("A2 — Oscillator #X regimes (Thm 5.1 hypothesis)",
		"#X", "dominance events", "cyclic", "a_min hit 0", "verdict")
	for _, nx := range []int{0, 1, int(math.Sqrt(float64(n)) / 2), n / 2} {
		sp := bitmask.NewSpace()
		x := sp.Bool("X")
		o := osc.New(sp, "O", x, osc.DefaultParams())
		proto := engine.CompileProtocol(o.Ruleset())
		rng := engine.NewRNG(cfg.BaseSeed + uint64(nx) + 3)
		pop := engine.NewDenseInit(n, func(i int) bitmask.State {
			var s bitmask.State
			if i < nx {
				s = x.Set(s, true)
			}
			return o.InitState(s, uint64(rng.Intn(3)), false)
		})
		r := engine.NewRunner(proto, pop, rng)
		probe := osc.NewProbe(o)
		extinct := false
		horizon := 200 * math.Log(float64(n))
		for r.Rounds() < horizon {
			r.RunRounds(1)
			probe.Observe(r)
			if o.MinSpecies(pop) == 0 {
				extinct = true
			}
		}
		verdict := "oscillates"
		switch {
		case len(probe.Events()) < 3 && nx >= n/2:
			verdict = "suppressed (X too large)"
		case extinct && nx == 0:
			verdict = "species extinct (no source)"
		case len(probe.Events()) < 3:
			verdict = "no sustained oscillation"
		}
		tb.AddRow(nx, len(probe.Events()), probe.CyclicOK(), extinct, verdict)
	}
	return Result{Tables: []*stats.Table{tb}}
}

// runA3 runs cfg.Seeds clocks per confirm threshold. Each run's peak
// agreement is its weakest phase's best majority; the table reports the
// minimum and median of that over the seeds, and the skips of all seeds.
func runA3(cfg Config) Result {
	n := 2000
	if cfg.Quick {
		n = 1000
	}
	tb := stats.NewTable("A3 — Consensus confirmation-gate ablation",
		"confirm threshold", "n", "seeds", "ticks mean", "skips", "min peak agreement", "median peak agreement")
	for _, th := range []int{1, 2, 3} {
		type rep struct {
			Ticks, Skips int
			MinPeak      float64
		}
		reps := replicate(cfg, fmt.Sprintf("A3/threshold=%d", th), cfg.Seeds,
			func(s int) uint64 { return cfg.BaseSeed + uint64(100*s+th) },
			func(s int, seed uint64) rep {
				ticks, skips, minPeak := ablationClockRun(n, clock.BaseOptions{ConfirmThreshold: th}, seed)
				return rep{Ticks: ticks, Skips: skips, MinPeak: minPeak}
			})
		var ticks, peaks []float64
		skips := 0
		for _, r := range reps {
			ticks = append(ticks, float64(r.Ticks))
			skips += r.Skips
			peaks = append(peaks, r.MinPeak)
		}
		ps := stats.Summarize(peaks)
		tb.AddRow(th, n, cfg.Seeds, stats.Summarize(ticks).Mean, skips, ps.Min, ps.Median)
	}
	return Result{Tables: []*stats.Table{tb}}
}
