package semilinear

import (
	"math"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/rules"
)

// Exact is the SemilinearPredicateExact protocol of §6.3: an always-
// correct computation of a semi-linear predicate that is also fast w.h.p.
// It couples three mechanisms under the framework's good-iteration
// semantics:
//
//   - a leader-election thread (coin-halving on L with the coalescing R
//     fallback, as in §6.1), giving a unique leader fast w.h.p. and with
//     certainty eventually;
//   - the fast blackbox (threshold predicates): each iteration resets the
//     signed tokens, runs Θ(log n) cancel/duplicate phases, and reads the
//     surviving sign;
//   - the slow blackbox, running continuously in the background, whose
//     decided bits (P_D^1, P_D^0) veto the fast result: "P := on" only
//     while not every agent has decided 0, and "P := off" only while not
//     every agent has decided 1 — the paper's combination.
//
// The output variable P therefore converges w.h.p. within O(polylog n)
// framework rounds of leader convergence, and with certainty once the
// slow blackbox has stabilized. Modulo predicates have no fast box here
// (a documented substitution; see DESIGN.md): they converge through the
// slow path alone, still exactly. So do boolean combinations (AndPred,
// OrPred, NotPred), whose slow blackbox is a ComboSlowBox.
type Exact struct {
	Pred Predicate

	Space *bitmask.Space
	Pop   *engine.Dense
	RNG   *engine.RNG
	// Rounds is accumulated parallel time under the framework cost model.
	Rounds float64
	// C is the loop constant.
	C int

	P    bitmask.Var // output
	L    bitmask.Var // leader flag
	R    bitmask.Var // coalescing fallback set
	slow stableBox
	fast *FastBox // nil unless Pred is a Threshold

	// Runners of the background (slow box + R coalescence) and of the fast
	// box's cancel and duplicate phases composed with it, built once so
	// their pair memos stay warm across iterations.
	bg, cancel, dup *engine.Runner
	logN            float64

	gHasPos, gHasNeg, gD0, gD1, gL, gP bitmask.Guard
}

// stableBox is the slow blackbox Exact runs in the background: a SlowBox
// for one threshold or mod, a ComboSlowBox for a boolean combination.
type stableBox interface {
	Rules() *rules.Ruleset
	InitAgent(s bitmask.State, colour int) bitmask.State
	decided() (d0, d1 bitmask.Var)
}

// NewExact builds the protocol for the predicate over n agents whose
// colours are given by colour(i) ∈ {0…arity−1} or −1 for uncoloured.
// It panics on a predicate outside the boolean closure of thresholds and
// mods.
func NewExact(pred Predicate, n int, colour func(i int) int, seed uint64) *Exact {
	sp := bitmask.NewSpace()
	e := &Exact{
		Pred:  pred,
		Space: sp,
		RNG:   engine.NewRNG(seed),
		C:     2,
		P:     sp.Bool("P"),
		L:     sp.Bool("L"),
		R:     sp.Bool("R"),
		logN:  math.Log(float64(n)),
	}
	switch pred.(type) {
	case Threshold, Mod:
		e.slow = NewSlowBox(sp, "S", pred)
	default:
		combo, err := NewComboSlowBox(sp, "S", pred)
		if err != nil {
			panic(err)
		}
		e.slow = combo
	}
	if th, ok := pred.(Threshold); ok {
		e.fast = NewFastBox(sp, "F", th)
	}

	e.Pop = engine.NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		s = e.L.Set(s, true)
		s = e.R.Set(s, true)
		s = e.P.Set(s, true)
		return e.slow.InitAgent(s, colour(i))
	})

	// Background: the slow blackbox composed with the R coalescence.
	coalesce := rules.NewRuleset(sp)
	coalesce.Add(bitmask.Is(e.R), bitmask.Is(e.R), bitmask.Is(e.R), bitmask.IsNot(e.R))
	runner := func(threads ...*rules.Ruleset) *engine.Runner {
		return engine.NewRunner(engine.CompileProtocol(rules.ComposeThreads(threads...)), e.Pop, e.RNG)
	}
	e.bg = runner(e.slow.Rules(), coalesce)
	if e.fast != nil {
		e.cancel = runner(e.fast.CancelRules(), e.slow.Rules(), coalesce)
		e.dup = runner(e.fast.DupRules(), e.slow.Rules(), coalesce)
		e.gHasPos = bitmask.Compile(e.fast.HasPos())
		e.gHasNeg = bitmask.Compile(e.fast.HasNeg())
	}
	d0, d1 := e.slow.decided()
	e.gD0 = bitmask.Compile(bitmask.Is(d0))
	e.gD1 = bitmask.Compile(bitmask.Is(d1))
	e.gL = bitmask.Compile(bitmask.Is(e.L))
	e.gP = bitmask.Compile(bitmask.Is(e.P))
	return e
}

// chargeLeaves accounts parallel time and runs the background protocol.
func (e *Exact) chargeLeaves(leaves float64) {
	dt := leaves * float64(e.C) * e.logN
	e.Rounds += dt
	e.bg.RunRounds(dt)
}

// Leaders returns the current number of leader-flagged agents.
func (e *Exact) Leaders() int { return e.Pop.Count(e.gL) }

// Output returns the number of agents with the output P set.
func (e *Exact) Output() int { return e.Pop.Count(e.gP) }

// SlowDecided reports whether the slow blackbox has decided unanimously,
// and which way.
func (e *Exact) SlowDecided() (decided, value bool) {
	n := e.Pop.N()
	if e.Pop.Count(e.gD1) == n {
		return true, true
	}
	if e.Pop.Count(e.gD0) == n {
		return true, false
	}
	return false, false
}

// leaderIteration runs one §6.1-style halving pass on L.
func (e *Exact) leaderIteration() {
	e.chargeLeaves(4)
	if e.Pop.Count(e.gL) == 0 {
		// Repair from the fallback set (L := R).
		e.applyPerAgent(func(s bitmask.State) bitmask.State {
			return e.L.Set(s, e.R.Get(s))
		})
		return
	}
	// Per-agent coins; survivors keep L if any survived.
	survivors := 0
	coins := make([]bool, e.Pop.N())
	for i := range coins {
		if e.L.Get(e.Pop.Agent(i)) && e.RNG.Bool() {
			coins[i] = true
			survivors++
		}
	}
	if survivors > 0 {
		e.Pop.Remap(2, func(i int) int {
			if coins[i] {
				return 1
			}
			return 0
		}, func(s bitmask.State, c int) bitmask.State {
			return e.L.Set(s, c == 1)
		})
	}
}

func (e *Exact) applyPerAgent(fn func(bitmask.State) bitmask.State) {
	e.Pop.Remap(1, nil, func(s bitmask.State, _ int) bitmask.State { return fn(s) })
}

// fastAttempt runs one full fast-blackbox pass and returns its verdict.
func (e *Exact) fastAttempt(colour func(i int) int) bool {
	// Reset tokens (two assignment leaves).
	e.chargeLeaves(2)
	// Labels are colour+1, so uncoloured agents (−1) label 0.
	e.Pop.Remap(e.Pred.Arity()+1, func(i int) int { return colour(i) + 1 }, func(s bitmask.State, c int) bitmask.State {
		return e.fast.TokenState(s, c-1, e.L.Get(s))
	})
	passes := int(math.Ceil(float64(e.C) * e.logN))
	for p := 0; p < passes; p++ {
		dt := float64(e.C) * e.logN
		e.Rounds += dt
		e.cancel.RunRounds(dt)
		// K := off (one assignment).
		e.chargeLeaves(1)
		kClear := bitmask.ClearVar(e.fast.K)
		e.Pop.ApplyAll(bitmask.TrueGuard(), kClear)
		e.Rounds += dt
		e.dup.RunRounds(dt)
	}
	return e.Pop.Count(e.gHasPos) > 0
}

// RunIteration executes one outer iteration: leader halving, a fast
// attempt (for thresholds), and the §6.3 veto-combined output update.
func (e *Exact) RunIteration(colour func(i int) int) {
	e.leaderIteration()

	var fastTrue bool
	if e.fast != nil {
		fastTrue = e.fastAttempt(colour)
	} else {
		// Modulo predicates and combinations: follow the slow
		// blackbox's (eventual) verdict; undecided populations leave P
		// alone.
		decided, value := e.SlowDecided()
		if !decided {
			e.chargeLeaves(2)
			return
		}
		fastTrue = value
	}

	// The combination of §6.3: the slow thread's unanimous decisions veto
	// conflicting fast updates.
	e.chargeLeaves(4)
	n := e.Pop.N()
	if fastTrue {
		if e.Pop.Count(e.gD0) < n { // "if exists (¬P_D^0)"
			e.Pop.ApplyAll(bitmask.TrueGuard(), bitmask.SetVar(e.P))
		}
	} else {
		if e.Pop.Count(e.gD1) < n { // "if exists (¬P_D^1)"
			e.Pop.ApplyAll(bitmask.TrueGuard(), bitmask.ClearVar(e.P))
		}
	}
}

// RunUntilStable iterates until the output matches the oracle on every
// agent and the slow box has decided, or maxIters elapse. It returns the
// iterations used and whether stability was reached.
func (e *Exact) RunUntilStable(colour func(i int) int, counts []int64, maxIters int) (int, bool) {
	want := e.Pred.Eval(counts)
	for i := 0; i < maxIters; i++ {
		decided, value := e.SlowDecided()
		outOK := (e.Output() == e.Pop.N()) == want && (want || e.Output() == 0)
		if decided && value == want && outOK {
			return i, true
		}
		e.RunIteration(colour)
	}
	return maxIters, false
}
