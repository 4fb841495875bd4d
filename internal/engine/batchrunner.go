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

	idx *matchIndex
}

// NewBatchRunner assembles a batched runner. Protocols with ordered
// (first-match) groups are rejected: their event rates are not sums of
// per-rule matching counts. The runner's match index takes over the
// population's count changes, so a population can drive only one
// incremental runner at a time.
func NewBatchRunner(p *Protocol, pop *Counted, rng *RNG) *BatchRunner {
	return &BatchRunner{
		P: p, Pop: pop, RNG: rng,
		Fired: make([]uint64, len(p.Set.Rules)),
		idx:   newMatchIndex(p, pop),
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

// LeapStep advances the chain to (and through) the next rule-firing
// interaction. It returns false (without advancing) when no rule can ever
// fire again — the protocol is silent. maxInteractions bounds the leap: if
// the next firing lies beyond the bound, the runner advances exactly to
// the bound and returns true without firing.
func (r *BatchRunner) LeapStep(maxInteractions uint64) bool {
	_, alive, _ := r.run(1, maxInteractions, nil)
	return alive
}

// RunBatch fires up to maxFirings rule firings without evaluating any stop
// condition in between, bounded by maxInteractions total scheduler
// activations (0 = unbounded). It returns the number of firings executed
// and whether the protocol can still move. Trajectory collectors use it to
// advance in fixed-size strides between snapshots.
func (r *BatchRunner) RunBatch(maxFirings, maxInteractions uint64) (fired uint64, alive bool) {
	fired, alive, _ = r.run(maxFirings, maxInteractions, nil)
	return fired, alive
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
	budget := uint64(math.Ceil(maxRounds*float64(r.Pop.n))) + r.Interactions
	_, _, ok = r.run(math.MaxUint64, budget, cond)
	return r.Rounds() - start, ok
}

// run is the one leap-and-fire loop behind LeapStep, RunBatch and
// RunTracked. Each pass leaps over the quiescent stretch before the next
// firing and fires it. It returns after maxFirings firings; when the next
// firing lies beyond maxInteractions (0 = unbounded), having advanced
// exactly to the bound; or when no rule can fire again (alive false).
//
// A non-nil cond is RunTracked's stop condition: it is polled before the
// first leap, after every firing that moved a tracked count (every pass
// when nothing is tracked) and once more if the protocol goes silent, and
// met reports whether it held. With cond the bound is a budget: the run
// stops once it is reached instead of at the first leap that hits it.
func (r *BatchRunner) run(maxFirings, maxInteractions uint64, cond func() bool) (fired uint64, alive, met bool) {
	ix := r.idx
	gated := len(ix.trackers) > 0
	check := true
	for {
		if cond != nil {
			if check || !gated {
				ix.trackersMoved = false
				if cond() {
					return fired, true, true
				}
			}
			if r.Interactions >= maxInteractions {
				return fired, true, false
			}
		}
		if fired == maxFirings {
			return fired, true, false
		}
		ix.syncCaches()
		q := ix.stepProbability()
		if q <= 0 {
			// Silent: the configuration can never change again.
			return fired, false, cond != nil && cond()
		}
		skip := r.RNG.Geometric(q)
		if maxInteractions > 0 && r.Interactions+skip+1 > maxInteractions {
			r.Interactions = maxInteractions
			if cond == nil {
				return fired, true, false
			}
			check = ix.trackersMoved
			continue
		}
		r.Interactions += skip + 1
		idx := ix.fireForcedMatching(r.RNG)
		r.Fired[idx]++
		r.Stats.Fire(idx, 1)
		fired++
		check = ix.trackersMoved
	}
}
