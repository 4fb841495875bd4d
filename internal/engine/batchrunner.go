package engine

import (
	"math"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
)

// CountedRunner drives a Counted population through the same Markov chain
// as Runner, but fires whole runs of interactions between stop-condition
// checks and strips every RNG draw whose outcome is forced. It serves both
// counted tiers: the batch tier takes only leap steps, the aggregate tier
// also resolves firing-dense stretches one collision-free run at a time.
//
// It is exact in distribution. A leap step jumps over the non-firing
// interactions before the next firing — a geometric race against the
// horizon, the exact analogue of binomial τ-leap batching without its
// approximation error — and fires it, skipping a draw only when the pick
// it would make is deterministic:
//
//   - the rule pick, when exactly one rule has matching pairs (epidemics,
//     coalescence, and the long annihilation tail of exact majority);
//   - the initiator/responder picks, when the guard has exactly one
//     occupied species (tracked incrementally as occ1/occ2).
//
// When a collision-free run is expected to carry at least MinRunFirings
// firings, the step resolves the whole run in aggregate instead (see
// aggregateStep). Both step flavours are exact transitions of the same
// chain, and the choice depends only on the current counts, so mixing them
// preserves the law.
//
// It does NOT reproduce the dense Runner's RNG stream — it draws per firing,
// not per interaction, and skips forced draws. What it promises instead is
// the same law: batch_equiv_test.go cross-validates its hitting-time
// distributions against the dense Runner at small n.
//
// Fired[i] counts the firings of rule i, giving experiments per-rule
// interaction accounting for free; FiredTotal is their sum.
type CountedRunner struct {
	P   *Protocol
	Pop *Counted
	RNG *RNG

	// Interactions counts scheduler activations including the leapt
	// non-matching ones.
	Interactions uint64

	// Fired counts rule firings, indexed by rule; FiredTotal is the sum.
	Fired      []uint64
	FiredTotal uint64

	// Stats, when non-nil, mirrors Fired into a shared obs.RuleStats so
	// instrumented drivers read one tally type across both kernels.
	Stats *obs.RuleStats

	// MinRunFirings gates the aggregate step: a collision-free run is
	// decomposed in aggregate only when its expected firing count q·E[ℓ]
	// reaches this bound; below it a leap step is cheaper. +Inf never
	// takes the aggregate step (the batch tier); DefaultMinRunFirings is
	// the aggregate tier's crossover. Tests set 0 to force the aggregate
	// step at small n.
	MinRunFirings float64

	idx *matchIndex

	// The aggregate step's state (aggrunner.go), starting with constants
	// of the run-length sampler for the population size.
	lgN1    float64 // ln Γ(n+1)
	lnPairs float64 // ln n + ln(n−1)
	meanRun float64 // E[ℓ] ≈ √(πn/8)

	// Slot-indexed scratch, zeroed per aggregate step.
	compI []int64 // initiator species multiset of the run
	compR []int64 // responder species multiset
	compF []int64 // untouched ("fresh") agents per species
	delta []int64 // net count delta accumulated over the run
	aA    []int32 // small-path initiator slots
	aB    []int32 // small-path responder slots

	// pairRules caches, per (initiator slot, responder slot), the rule
	// groups whose unique matching rule fires on that pair, with weights
	// and lazily resolved output slots. Keyed like the transition cache:
	// reset whenever the slot table reshapes.
	pairRules [][]pairRule
	pairBuilt []bool
	pairGen   uint64
	pairSlots int
}

// NewCountedRunner assembles a counted runner whose aggregate step is
// gated at minRunFirings (see MinRunFirings). Protocols with ordered
// (first-match) groups are rejected: their event rates are not sums of
// per-rule matching counts. The runner's match index takes over the
// population's count changes, so a population can drive only one
// incremental runner at a time.
func NewCountedRunner(p *Protocol, pop *Counted, rng *RNG, minRunFirings float64) *CountedRunner {
	n := float64(pop.n)
	lg, _ := math.Lgamma(n + 1)
	return &CountedRunner{
		P: p, Pop: pop, RNG: rng,
		Fired:         make([]uint64, len(p.Set.Rules)),
		MinRunFirings: minRunFirings,
		idx:           newMatchIndex(p, pop),
		lgN1:          lg,
		lnPairs:       math.Log(n) + math.Log(n-1),
		meanRun:       math.Sqrt(math.Pi * n / 8),
	}
}

// Rounds returns elapsed parallel time (interactions / n).
func (r *CountedRunner) Rounds() float64 {
	return float64(r.Interactions) / float64(r.Pop.n)
}

// InteractionCount returns Interactions.
func (r *CountedRunner) InteractionCount() uint64 { return r.Interactions }

// SetStats attaches a per-rule firing tally (nil detaches).
func (r *CountedRunner) SetStats(s *obs.RuleStats) { r.Stats = s }

// HistogramInto snapshots the population into dst (cleared first).
func (r *CountedRunner) HistogramInto(dst map[bitmask.State]int64) { r.Pop.HistogramInto(dst) }

// Track registers a guard for incremental counting and returns its
// tracker. RunTracked re-evaluates its stop condition only when some
// tracked count moves.
func (r *CountedRunner) Track(name string, f bitmask.Formula) *Tracker {
	return r.idx.track(name, f)
}

// LeapStep advances the chain to (and through) the next rule firing. It
// returns false (without advancing) when no rule can ever fire again — the
// protocol is silent. maxInteractions (0 = unbounded) bounds the step: the
// runner never advances past it, and a runner already at the bound returns
// true without drawing. Aggregate steps are truncated at the bound, which
// is exact — the first k activations of a run of length ≥ k are themselves
// a uniform collision-free prefix.
func (r *CountedRunner) LeapStep(maxInteractions uint64) bool {
	_, alive, _ := r.run(1, maxInteractions, nil)
	return alive
}

// RunBatch fires maxFirings rule firings without evaluating any stop
// condition in between (aggregate steps fire in lumps, so the total may
// overshoot), stopping early at maxInteractions total scheduler
// activations (0 = unbounded). It returns the number of firings executed
// and whether the protocol can still move. Trajectory collectors use it to advance in
// fixed-size strides between snapshots.
func (r *CountedRunner) RunBatch(maxFirings, maxInteractions uint64) (fired uint64, alive bool) {
	fired, alive, _ = r.run(maxFirings, maxInteractions, nil)
	return fired, alive
}

// RunTracked leaps until the condition holds or maxRounds elapses or the
// protocol goes silent, returning the parallel time consumed and whether
// the condition was met.
//
// When trackers are registered (Track), the condition is re-evaluated only
// after steps that moved a tracked count — the runs of quiescent firings
// in between form the batches. Conditions must therefore read registered
// trackers (or state derived from them); with no trackers the condition
// runs after every step. An aggregate step is checked at its end: a target
// hit mid-run is observed up to one collision-free run (E[ℓ] ≈ 0.63·√n
// interactions, well under one parallel round) later — the hitting times
// the registry protocols measure are against absorbing targets, where the
// boundary is exact up to that sub-round granularity.
func (r *CountedRunner) RunTracked(cond func() bool, maxRounds float64) (rounds float64, ok bool) {
	start := r.Rounds()
	budget := uint64(math.Ceil(maxRounds*float64(r.Pop.n))) + r.Interactions
	_, _, ok = r.run(math.MaxUint64, budget, cond)
	return r.Rounds() - start, ok
}

// run is the one step loop behind LeapStep, RunBatch and RunTracked. Each
// pass takes one step: an aggregate step when q·E[ℓ] reaches
// MinRunFirings, else a leap over the quiescent stretch before the next
// firing and that firing. It returns once maxFirings firings have executed;
// at the bound maxInteractions (0 = unbounded), without drawing; or when
// no rule can fire again (alive false).
//
// A non-nil cond is RunTracked's stop condition: it is polled before the
// first step, after every step that moved a tracked count (every step
// when nothing is tracked) and once more if the protocol goes silent, and
// met reports whether it held. With cond the bound is a budget: 0 means
// none is left, not unbounded.
func (r *CountedRunner) run(maxFirings, maxInteractions uint64, cond func() bool) (fired uint64, alive, met bool) {
	ix := r.idx
	start := r.FiredTotal
	gated := len(ix.trackers) > 0
	check := true
	for {
		if cond != nil {
			if check || !gated {
				ix.trackersMoved = false
				if cond() {
					return r.FiredTotal - start, true, true
				}
			}
			if r.Interactions >= maxInteractions {
				return r.FiredTotal - start, true, false
			}
		} else if r.FiredTotal-start >= maxFirings || maxInteractions > 0 && r.Interactions >= maxInteractions {
			return r.FiredTotal - start, true, false
		}
		ix.syncCaches()
		q := ix.stepProbability()
		if q <= 0 {
			// Silent: the configuration can never change again.
			return r.FiredTotal - start, false, cond != nil && cond()
		}
		if q*r.meanRun >= r.MinRunFirings {
			r.aggregateStep(maxInteractions)
		} else if skip := r.RNG.Geometric(q); maxInteractions > 0 && r.Interactions+skip+1 > maxInteractions {
			// The next firing lies beyond the bound: advance exactly to it.
			r.Interactions = maxInteractions
		} else {
			r.Interactions += skip + 1
			i := ix.fireForcedMatching(r.RNG)
			r.Fired[i]++
			r.FiredTotal++
			r.Stats.Fire(i, 1)
		}
		check = ix.trackersMoved
	}
}
