package engine

import (
	"math"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
)

// BatchRunner drives a Counted population through the same Markov chain as
// Runner, but fires whole runs of interactions between stop-condition
// checks and strips every RNG draw whose outcome is forced.
// It is exact in distribution — leaps over non-firing interactions are
// geometric races against the horizon (the exact analogue of binomial
// τ-leap batching, without its approximation error), and a draw is skipped
// only when the pick it would make is deterministic:
//
//   - the rule pick, when exactly one rule has matching pairs (epidemics,
//     coalescence, and the long annihilation tail of exact majority);
//   - the initiator/responder picks, when the guard has exactly one
//     occupied species (tracked incrementally as occ1/occ2).
//
// It does NOT reproduce the dense Runner's RNG stream — it draws per firing,
// not per interaction, and skips forced draws. What it promises instead is
// the same law: batch_equiv_test.go cross-validates its hitting-time
// distributions against the dense Runner at small n.
//
// Fired[i] counts the firings of rule i, giving experiments per-rule
// interaction accounting for free.
type BatchRunner struct {
	P   *Protocol
	Pop *Counted
	RNG *RNG

	// Interactions counts scheduler activations including the leapt
	// non-matching ones.
	Interactions uint64

	// Fired counts rule firings, indexed by rule.
	Fired []uint64

	// Stats, when non-nil, mirrors Fired into a shared obs.RuleStats so
	// instrumented drivers read one tally type across all three kernels.
	Stats *obs.RuleStats

	idx    *matchIndex
	pairsW []float64
}

// NewBatchRunner assembles a batched runner. Protocols with ordered
// (first-match) groups are rejected: their event rates are not sums of
// per-rule matching counts. The runner attaches to the population's
// mutation hook, so a population can drive only one incremental runner at
// a time.
func NewBatchRunner(p *Protocol, pop *Counted, rng *RNG) *BatchRunner {
	return &BatchRunner{
		P: p, Pop: pop, RNG: rng,
		Fired:  make([]uint64, len(p.Set.Rules)),
		idx:    newMatchIndex(p, pop),
		pairsW: make([]float64, len(p.Set.Rules)),
	}
}

// Rounds returns elapsed parallel time (interactions / n).
func (r *BatchRunner) Rounds() float64 {
	return float64(r.Interactions) / float64(r.Pop.n)
}

// InteractionCount returns Interactions.
func (r *BatchRunner) InteractionCount() uint64 { return r.Interactions }

// SetStats attaches a per-rule firing tally (nil detaches).
func (r *BatchRunner) SetStats(s *obs.RuleStats) { r.Stats = s }

// HistogramInto snapshots the population into dst (cleared first).
func (r *BatchRunner) HistogramInto(dst map[bitmask.State]int64) { r.Pop.HistogramInto(dst) }

// Track registers a guard for incremental counting and returns its
// tracker. RunTracked re-evaluates its stop condition only when some
// tracked count moves.
func (r *BatchRunner) Track(name string, f bitmask.Formula) *Tracker {
	return r.idx.track(name, f)
}

// stepProbability returns the probability that a single scheduler
// activation fires some rule.
func (r *BatchRunner) stepProbability() float64 {
	n := float64(r.Pop.n)
	totalPairs := n * (n - 1)
	var q float64
	ix := r.idx
	for i := range r.P.ruleWeightN {
		q += r.P.ruleWeightN[i] * float64(ix.m1[i]*ix.m2[i]-ix.m12[i]) / totalPairs
	}
	return q
}

// LeapStep advances the chain to (and through) the next rule-firing
// interaction. It returns false (without advancing) when no rule can ever
// fire again — the protocol is silent. maxInteractions bounds the leap: if
// the next firing lies beyond the bound, the runner advances exactly to
// the bound and returns true without firing.
func (r *BatchRunner) LeapStep(maxInteractions uint64) bool {
	_, alive := r.leap(maxInteractions)
	return alive
}

// leap is LeapStep distinguishing "fired" from "advanced to the horizon
// without firing".
func (r *BatchRunner) leap(maxInteractions uint64) (fired, alive bool) {
	r.idx.syncCaches()
	q := r.stepProbability()
	if q <= 0 {
		return false, false
	}
	skip := r.RNG.Geometric(q)
	if maxInteractions > 0 && r.Interactions+skip+1 > maxInteractions {
		r.Interactions = maxInteractions
		return false, true
	}
	r.Interactions += skip + 1
	r.fireMatching()
	return true, true
}

// fireMatching executes one uniformly chosen matching (rule, ordered pair)
// event, conditioned on the interaction firing, skipping draws whose
// outcome is forced.
func (r *BatchRunner) fireMatching() {
	idx := r.idx.fireForcedMatching(r.RNG, r.pairsW)
	r.Fired[idx]++
	r.Stats.Fire(idx, 1)
}

// RunBatch fires up to maxFirings rule firings without evaluating any stop
// condition in between, bounded by maxInteractions total scheduler
// activations (0 = unbounded). It returns the number of firings executed
// and whether the protocol can still move. Trajectory collectors use it to
// advance in fixed-size strides between snapshots.
func (r *BatchRunner) RunBatch(maxFirings, maxInteractions uint64) (fired uint64, alive bool) {
	for fired < maxFirings {
		f, a := r.leap(maxInteractions)
		if !a {
			return fired, false
		}
		if !f {
			// Hit the horizon without firing.
			return fired, true
		}
		fired++
	}
	return fired, true
}

// RunTracked leaps until the condition holds or maxRounds elapses or the
// protocol goes silent, returning the parallel time consumed and whether
// the condition was met.
//
// When trackers are registered (Track), the condition is re-evaluated only
// after firings that moved a tracked count — the runs of quiescent firings
// in between form the batches. Conditions must therefore read registered
// trackers (or state derived from them); with no trackers the condition
// runs after every firing.
func (r *BatchRunner) RunTracked(cond func() bool, maxRounds float64) (rounds float64, ok bool) {
	start := r.Rounds()
	n := float64(r.Pop.n)
	budget := uint64(math.Ceil(maxRounds*n)) + r.Interactions
	gated := len(r.idx.trackers) > 0
	check := true
	for {
		if check || !gated {
			r.idx.trackersMoved = false
			if cond() {
				return r.Rounds() - start, true
			}
		}
		if r.Interactions >= budget {
			return r.Rounds() - start, false
		}
		if !r.LeapStep(budget) {
			// Silent: the configuration can never change again.
			return r.Rounds() - start, cond()
		}
		check = r.idx.trackersMoved
	}
}
