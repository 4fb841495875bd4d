package expt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/junta"
	"popkit/internal/rules"
	"popkit/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E6",
		Claim: "Two-meet reduction: #X ≤ n^(1−ε) within O(n^ε) rounds, #X ≥ 1 always (Prop 5.3)",
		Run:   runE6,
	})
	register(Experiment{
		ID:    "E7",
		Claim: "k-level cascade: #X ≤ n^(1−ε) within polylog rounds; #X survives a while after (Prop 5.5)",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E12",
		Claim: "Always-correct trade-off: init time scales as n^ε as ε varies (Thm 2.4(ii)(b))",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "F2",
		Claim: "Figure: #X decay curves, two-meet vs cascade",
		Run:   runF2,
	})
}

// twoMeetTime measures rounds until #X < n^(1−eps) under the two-meet rule
// on the fastest admissible counted kernel. The stop condition reads an
// incremental tracker, so it is only re-evaluated when #X actually moves.
func twoMeetTime(n int64, eps float64, seed uint64) (rounds float64, finalX int64, interactions uint64) {
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	tm := junta.NewTwoMeet(sp, x)
	rs := tm.Rules()
	p := engine.CompileProtocol(rs)
	sX := tm.InitAgent(bitmask.State{})
	drv := NewDriver(p, map[bitmask.State]int64{sX: n}, engine.NewRNG(seed), RunnerHints{})
	tx := drv.Track("X", bitmask.Is(x))
	target := math.Pow(float64(n), 1-eps)
	r, _ := drv.RunUntil(func() bool {
		return float64(tx.Count()) < target
	}, 1e12)
	return r, tx.Count(), drv.Interactions()
}

func runE6(cfg Config) Result {
	sizes := []int64{1e4, 1e6, 1e7}
	if cfg.Quick {
		sizes = []int64{1e4, 1e6}
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5
	}
	tb := stats.NewTable("E6 — Two-meet X reduction (Prop 5.3)",
		"n", "ε", "rounds to #X<n^(1−ε)", "rounds / n^ε", "#X stays ≥ 1")
	var ns, times []float64
	var interactions uint64
	for _, n := range sizes {
		for _, eps := range []float64{0.25, 0.5} {
			n, eps := n, eps
			type rep struct {
				Rounds float64
				FinalX int64
				Inter  uint64
			}
			reps := replicate(cfg, fmt.Sprintf("E6/n=%d/eps=%v", n, eps), seeds,
				func(s int) uint64 { return cfg.BaseSeed + uint64(n) + uint64(s) },
				func(s int, seed uint64) rep {
					r, fx, in := twoMeetTime(n, eps, seed)
					return rep{Rounds: r, FinalX: fx, Inter: in}
				})
			var rs []float64
			alive := true
			for _, rp := range reps {
				rs = append(rs, rp.Rounds)
				interactions += rp.Inter
				if rp.FinalX < 1 {
					alive = false
				}
			}
			sm := stats.Summarize(rs)
			tb.AddRow(n, eps, sm.Mean, sm.Mean/math.Pow(float64(n), eps), alive)
			if eps == 0.5 {
				ns = append(ns, float64(n))
				times = append(times, sm.Mean)
			}
		}
	}
	e, r2 := stats.PolyExponent(ns, times)
	fit := stats.NewTable("E6 fit (ε=0.5)", "model", "exponent", "R²", "paper target")
	fit.AddRow("rounds ~ n^e", e, r2, "e ≈ 0.5")
	return Result{Tables: []*stats.Table{tb, fit}, Interactions: interactions}
}

// cascadeTime measures the cascade's threshold time and survival margin.
func cascadeTime(n int64, k int, eps float64, seed uint64) (rounds float64, surviveRounds float64, interactions uint64) {
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	c := junta.NewCascade(sp, "J", x, k)
	rs := c.Rules()
	p := engine.CompileProtocol(rs)
	sInit := c.InitAgent(bitmask.State{})
	drv := NewDriver(p, map[bitmask.State]int64{sInit: n}, engine.NewRNG(seed), RunnerHints{})
	tx := drv.Track("X", bitmask.Is(x))
	target := math.Pow(float64(n), 1-eps)
	r, ok := drv.RunUntil(func() bool {
		return float64(tx.Count()) < target
	}, 1e9)
	if !ok {
		return math.NaN(), 0, drv.Interactions()
	}
	// Measure how long #X stays positive afterwards.
	r2, died := drv.RunUntil(func() bool { return tx.Count() == 0 }, 1e9)
	if !died {
		r2 = math.Inf(1)
	}
	return r, r2, drv.Interactions()
}

func runE7(cfg Config) Result {
	// The cascade's reset rule matches almost every interaction, so the
	// counted engine cannot leap here; sizes are kept modest.
	sizes := []int64{1e4, 3e4, 1e5}
	if cfg.Quick {
		sizes = []int64{1e4, 3e4}
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5
	}
	tb := stats.NewTable("E7 — Cascade X reduction (Prop 5.5)",
		"n", "k", "rounds to #X<√n", "rounds / log^k n", "survival after (rounds)")
	var interactions uint64
	for _, n := range sizes {
		for _, k := range []int{1, 2} {
			n, k := n, k
			type rep struct {
				Rounds, Survive float64
				Inter           uint64
			}
			reps := replicate(cfg, fmt.Sprintf("E7/n=%d/k=%d", n, k), seeds,
				func(s int) uint64 { return cfg.BaseSeed + uint64(n) + uint64(k*100+s) },
				func(s int, seed uint64) rep {
					r, sr, in := cascadeTime(n, k, 0.5, seed)
					return rep{Rounds: r, Survive: sr, Inter: in}
				})
			var rs, surv []float64
			for _, rp := range reps {
				interactions += rp.Inter
				if !math.IsNaN(rp.Rounds) {
					rs = append(rs, rp.Rounds)
					surv = append(surv, rp.Survive)
				}
			}
			sm, ss := stats.Summarize(rs), stats.Summarize(surv)
			logk := math.Pow(math.Log(float64(n)), float64(k))
			tb.AddRow(n, k, sm.Mean, sm.Mean/logk, ss.Mean)
		}
	}
	return Result{Tables: []*stats.Table{tb}, Interactions: interactions}
}

func runE12(cfg Config) Result {
	n := int64(1e6)
	if cfg.Quick {
		n = 1e5
	}
	seeds := cfg.Seeds
	if seeds > 5 {
		seeds = 5
	}
	tb := stats.NewTable("E12 — Always-correct time/state trade-off (Thm 2.4(ii)(b))",
		"mechanism", "ε", "states (per-agent bits added)", "init rounds mean", "rounds/n^ε")
	var interactions uint64
	for _, eps := range []float64{0.25, 0.33, 0.5} {
		eps := eps
		type rep struct {
			Rounds float64
			Inter  uint64
		}
		reps := replicate(cfg, fmt.Sprintf("E12/eps=%v", eps), seeds,
			func(s int) uint64 { return cfg.BaseSeed + uint64(17*s) + uint64(eps*100) },
			func(s int, seed uint64) rep {
				r, _, in := twoMeetTime(n, eps, seed)
				return rep{Rounds: r, Inter: in}
			})
		var rs []float64
		for _, rp := range reps {
			rs = append(rs, rp.Rounds)
			interactions += rp.Inter
		}
		sm := stats.Summarize(rs)
		tb.AddRow("two-meet (O(1) states)", eps, 1, sm.Mean, sm.Mean/math.Pow(float64(n), eps))
	}
	// The fast alternative: the geometric junta election reaches
	// #X ≤ n^(1−ε) in O(log n) rounds with O(log n) states. The ruleset is
	// compiled once and shared read-only across the replica fleet.
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	g := junta.NewGeometric(sp, "G", x, 24)
	p := engine.CompileProtocol(g.Rules())
	nd := 100000
	rs := replicate(cfg, "E12/geometric", seeds,
		func(s int) uint64 { return cfg.BaseSeed + uint64(900+s) },
		func(s int, seed uint64) float64 {
			pop := engine.NewDenseInit(nd, func(int) bitmask.State {
				return g.InitAgent(bitmask.State{})
			})
			r := engine.NewRunner(p, pop, engine.NewRNG(seed))
			tr := r.Track("X", bitmask.Is(x))
			target := math.Pow(float64(nd), 0.75)
			rounds, _ := r.RunUntil(func(*engine.Runner) bool {
				return float64(tr.Count()) < target
			}, 1, 400*math.Log(float64(nd)))
			return rounds
		})
	sm := stats.Summarize(rs)
	// The dense runner pays one activation per step, so its interaction
	// count is exactly rounds × n.
	for _, r := range rs {
		interactions += uint64(r * float64(nd))
	}
	tb.AddRow("geometric junta (O(log n) states, Prop 5.4)", 0.25,
		sp.NumBitsUsed(), sm.Mean, sm.Mean/math.Log(float64(nd)))
	return Result{Tables: []*stats.Table{tb}, Interactions: interactions}
}

func runF2(cfg Config) Result {
	n := int64(1e5)
	if cfg.Quick {
		n = 3e4
	}
	// The figure contrasts the early decay shapes; cap the horizon well
	// past both mechanisms' n^(1-ε) crossings but before the cascade's
	// long residual-event tail.
	horizon := 4000.0
	var interactions uint64
	var b strings.Builder
	b.WriteString("rounds,twomeet_X,twomeet_species,cascade2_X,cascade2_species\n")
	// One sampled decay curve per mechanism. The stop condition is
	// tracker-gated, so each sample lands at the first #X change past its
	// round threshold — at which point #X still holds the threshold value,
	// since it was constant in between. The species column counts occupied
	// states via the counted population's histogram (satellite: HistogramInto
	// reuses one map across all samples).
	type point struct {
		X       int64
		Species int
	}
	curve := func(mk func(sp *bitmask.Space, x bitmask.Var) (*rules.Ruleset, bitmask.State)) map[float64]point {
		sp := bitmask.NewSpace()
		x := sp.Bool("X")
		rs, init := mk(sp, x)
		proto := engine.CompileProtocol(rs)
		drv := NewDriver(proto, map[bitmask.State]int64{init: n}, engine.NewRNG(cfg.BaseSeed+5), RunnerHints{})
		tx := drv.Track("X", bitmask.Is(x))
		hist := make(map[bitmask.State]int64, 16)
		out := map[float64]point{}
		next := 1.0
		drv.RunUntil(func() bool {
			if drv.Rounds() < next {
				return false
			}
			xc := tx.Count()
			drv.HistogramInto(hist)
			out[next] = point{X: xc, Species: len(hist)}
			next *= 1.3
			return xc <= 16
		}, horizon)
		interactions += drv.Interactions()
		return out
	}
	tmCurve := curve(func(sp *bitmask.Space, x bitmask.Var) (*rules.Ruleset, bitmask.State) {
		tm := junta.NewTwoMeet(sp, x)
		return tm.Rules(), tm.InitAgent(bitmask.State{})
	})
	caCurve := curve(func(sp *bitmask.Space, x bitmask.Var) (*rules.Ruleset, bitmask.State) {
		ca := junta.NewCascade(sp, "J", x, 2)
		return ca.Rules(), ca.InitAgent(bitmask.State{})
	})
	var ts []float64
	for t := range tmCurve {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	for _, t := range ts {
		tm := tmCurve[t]
		ca, ok := caCurve[t]
		caX, caS := "", ""
		if ok {
			caX = fmt.Sprintf("%d", ca.X)
			caS = fmt.Sprintf("%d", ca.Species)
		}
		fmt.Fprintf(&b, "%.0f,%d,%d,%s,%s\n", t, tm.X, tm.Species, caX, caS)
	}
	tb := stats.NewTable("F2 — #X decay", "series", "points")
	tb.AddRow("decay CSV", len(ts))
	return Result{
		Tables:       []*stats.Table{tb},
		Figures:      map[string]string{"F2_x_decay.csv": b.String()},
		Interactions: interactions,
	}
}
