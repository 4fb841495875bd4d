// Package clock implements the paper's phase-clock machinery (§5): the base
// oscillator-driven modulo-m phase clock (Theorem 5.2 and the modulo-m
// extension of §5.1), the protocol-slowdown transformer that lets one clock
// emulate a Θ(log n)-times slower random-matching scheduler for another
// protocol (§5.3), and the resulting hierarchy of clocks whose rates are
// separated by Θ(log n) factors, together with the stored-copy/consensus
// rules used to expose higher clocks' phases to every agent.
package clock

import (
	"fmt"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/osc"
	"popkit/internal/rules"
)

// Base is the oscillator-driven modulo-m phase clock. It has two layers:
//
// Tracker (§5.2 verbatim): a position p ∈ {0, …, 3K−1} split into three
// segments of K. In segment i the agent listens for species (i+1) mod 3:
// meeting it advances p, meeting another species resets p to the segment
// start, so crossing a segment takes K consecutive hits — possible only
// while the listened species dominates, which happens once per dominance
// window. Each agent therefore crosses exactly one segment per window.
//
// Counter (the §5.1 modulo-m extension): a value c ∈ {0, …, m−1}
// incremented whenever the position crosses a segment boundary, so c ticks
// once per dominance window, i.e. every Θ(log n) rounds. Because segments
// repeat modulo 3, agents that miss a window would drift; a confirmation-
// gated cyclic consensus repairs them: an agent that meets agents whose
// counter is cyclically 1 or 2 ahead in ConfirmThreshold consecutive
// encounters adopts the ahead value. The gate makes isolated "seed" agents
// (spurious early crossers, expected count ≈ n·f^K per window) harmless:
// the probability of meeting seeds thrice in a row is negligible, while a
// genuine tick quickly raises the ahead-fraction to Θ(1) and the whole
// population ratchets within O(1) rounds. Agents agree on c up to ±1,
// w.h.p., which is the Theorem 5.2 contract for the modulo-m clock.
type Base struct {
	Osc     *osc.Oscillator
	Pos     bitmask.Field // 3K values: the mod-3 tracker
	Counter bitmask.Field // m values: the clock phase
	Confirm bitmask.Field // 0..ConfirmThreshold-1 consecutive ahead-meetings
	M, K    int

	confirmAt int
	rs        *rules.Ruleset
}

// DefaultK is the calibrated consecutive-hit count.
const DefaultK = 8

// ConfirmThreshold is the default number of consecutive ahead-meetings
// needed before the consensus adopts an ahead counter value.
const ConfirmThreshold = 3

// BaseOptions tune the clock for ablation studies. The zero value is the
// calibrated configuration.
type BaseOptions struct {
	// DisableConsensus omits the counter catch-up rules entirely — the
	// ablated clock demonstrates why the §5.1 modulo-m extension needs a
	// repair mechanism (laggards and splits never heal).
	DisableConsensus bool
	// ConfirmThreshold overrides the confirmation gate (0 = default 3).
	// Threshold 1 adopts on the first ahead-meeting, letting spurious
	// early-crossers drag the population.
	ConfirmThreshold int
}

// NewBase allocates the clock's fields and builds its ruleset (composed
// with, but not containing, the oscillator's rules). m must be a positive
// multiple of 4 (required by the §5.3 slowdown construction); weight is the
// scheduler weight of each of the clock's rule groups.
func NewBase(sp *bitmask.Space, prefix string, o *osc.Oscillator, m, k, weight int) *Base {
	return NewBaseWithOptions(sp, prefix, o, m, k, weight, BaseOptions{})
}

// NewBaseWithOptions is NewBase with ablation knobs.
func NewBaseWithOptions(sp *bitmask.Space, prefix string, o *osc.Oscillator, m, k, weight int, opts BaseOptions) *Base {
	if m <= 0 || m%4 != 0 {
		panic(fmt.Sprintf("clock: module %d must be a positive multiple of 4", m))
	}
	if k < 1 || weight < 1 {
		panic("clock: K and weight must be ≥ 1")
	}
	if opts.ConfirmThreshold == 0 {
		opts.ConfirmThreshold = ConfirmThreshold
	}
	if opts.ConfirmThreshold < 1 {
		panic("clock: confirm threshold must be ≥ 1")
	}
	b := &Base{
		Osc:       o,
		Pos:       sp.Field(prefix+"Pos", uint64(3*k-1)),
		Counter:   sp.Field(prefix+"Ctr", uint64(m-1)),
		Confirm:   sp.Field(prefix+"Cf", uint64(opts.ConfirmThreshold-1)),
		M:         m,
		K:         k,
		confirmAt: opts.ConfirmThreshold,
	}
	b.rs = rules.NewRuleset(sp)
	b.buildTracker(prefix, weight)
	if !opts.DisableConsensus {
		b.buildConsensus(prefix, weight)
	}
	return b
}

// buildTracker emits the §5.2 position rules, expanded over the counter
// value at segment boundaries so the tick is atomic.
func (b *Base) buildTracker(prefix string, weight int) {
	o := b.Osc
	k := b.K
	notX := bitmask.IsNot(o.X)
	// Every rule constrains both Pos and Counter so the group shares one
	// single-cube initiator care mask and dispatches through the O(1)
	// hash index (the hot path of every composed protocol).
	group := make([]rules.Rule, 0, (6*k+3)*b.M)
	for p := 0; p < 3*k; p++ {
		seg := p / k
		listen := uint64((seg + 1) % 3)
		hit := bitmask.And(notX, bitmask.FieldIs(o.Species, listen))
		miss := bitmask.And(notX, bitmask.Not(bitmask.FieldIs(o.Species, listen)))
		next := uint64((p + 1) % (3 * k))
		for c := 0; c < b.M; c++ {
			at := bitmask.And(bitmask.FieldIs(b.Pos, uint64(p)), bitmask.FieldIs(b.Counter, uint64(c)))
			if (p+1)%k == 0 {
				// Segment crossing: advance the position and tick the
				// counter in one transition.
				group = append(group, rules.MustNew(at, hit,
					bitmask.And(bitmask.FieldIs(b.Pos, next), bitmask.FieldIs(b.Counter, uint64((c+1)%b.M))),
					bitmask.True()))
			} else {
				group = append(group, rules.MustNew(at, hit,
					bitmask.FieldIs(b.Pos, next), bitmask.True()))
			}
			// Reset to the segment start on a miss (skip the no-op at
			// offset 0).
			if p%k != 0 {
				group = append(group, rules.MustNew(at, miss,
					bitmask.FieldIs(b.Pos, uint64(seg*k)), bitmask.True()))
			}
		}
	}
	b.rs.AddGroup(prefix+"track", weight, group...)
}

// buildConsensus emits the counter catch-up rules: confirmations on
// meeting a counter cyclically ahead by 1 or 2, reset otherwise, adoption
// at the threshold. Adoption also jumps the agent's tracker position
// forward by the same number of segments: the adopted ticks replace the
// agent's pending crossings, so a pulled-up laggard does not tick again
// (and double-count) when its delayed position run finally completes.
func (b *Base) buildConsensus(prefix string, weight int) {
	m := b.M
	k := b.K
	// Two indexed groups: "confirm" (care mask Counter|Confirm) handles
	// confirmations and resets; "adopt" (care mask Counter|Confirm|Pos)
	// performs the threshold adoption with the position jump. Splitting
	// keeps every rule's initiator guard a single cube, so both groups
	// dispatch through the O(1) hash index.
	confirm := make([]rules.Rule, 0, m*m)
	adopt := make([]rules.Rule, 0, m*2*3*k)
	for c := 0; c < m; c++ {
		own := bitmask.FieldIs(b.Counter, uint64(c))
		for d := 0; d < m; d++ {
			other := bitmask.FieldIs(b.Counter, uint64((c+d)%m))
			switch {
			case d == 1 || d == 2:
				// Ahead: confirm, then adopt (with the position jump,
				// expanded per current tracker position).
				for cf := 0; cf < b.confirmAt-1; cf++ {
					confirm = append(confirm, rules.MustNew(
						bitmask.And(own, bitmask.FieldIs(b.Confirm, uint64(cf))), other,
						bitmask.FieldIs(b.Confirm, uint64(cf+1)), bitmask.True()))
				}
				for p := 0; p < 3*k; p++ {
					seg := p / k
					adopt = append(adopt, rules.MustNew(
						bitmask.And(own, bitmask.FieldIs(b.Confirm, uint64(b.confirmAt-1)), bitmask.FieldIs(b.Pos, uint64(p))),
						other,
						bitmask.And(
							bitmask.FieldIs(b.Counter, uint64((c+d)%m)),
							bitmask.FieldIs(b.Confirm, 0),
							bitmask.FieldIs(b.Pos, uint64(((seg+d)%3)*k))),
						bitmask.True()))
				}
			default:
				// Equal or not-ahead: reset any pending confirmation.
				for cf := 1; cf < b.confirmAt; cf++ {
					confirm = append(confirm, rules.MustNew(
						bitmask.And(own, bitmask.FieldIs(b.Confirm, uint64(cf))), other,
						bitmask.FieldIs(b.Confirm, 0), bitmask.True()))
				}
			}
		}
	}
	// At confirm threshold 1 an ahead clock adopts at once, so there is no
	// pending confirmation to step or reset.
	if len(confirm) > 0 {
		b.rs.AddGroup(prefix+"consensus", weight, confirm...)
	}
	b.rs.AddGroup(prefix+"adopt", weight, adopt...)
}

// Rules returns the clock's ruleset (not including the oscillator's).
func (b *Base) Rules() *rules.Ruleset { return b.rs }

// Phase returns the clock phase (counter value) of a state.
func (b *Base) Phase(s bitmask.State) int {
	return int(b.Counter.Get(s))
}

// PhaseFormula returns the formula "agent is in clock phase c".
func (b *Base) PhaseFormula(c int) bitmask.Formula {
	if c < 0 || c >= b.M {
		panic("clock: phase out of range")
	}
	return bitmask.FieldIs(b.Counter, uint64(c))
}

// PhaseModFormula returns the formula "agent's phase ≡ r (mod q)".
func (b *Base) PhaseModFormula(r, q int) bitmask.Formula {
	var parts []bitmask.Formula
	for c := 0; c < b.M; c++ {
		if c%q == r {
			parts = append(parts, b.PhaseFormula(c))
		}
	}
	return bitmask.Or(parts...)
}

// PhaseCounts tallies how many agents are in each phase.
func (b *Base) PhaseCounts(pop *engine.Dense) []int {
	out := make([]int, b.M)
	for i := 0; i < pop.N(); i++ {
		out[b.Phase(pop.Agent(i))]++
	}
	return out
}

// PhaseAgreement returns the largest fraction of agents whose phases lie
// within a cyclic window of two adjacent phases — the "agree up to ±1"
// measure of Theorem 5.2.
func (b *Base) PhaseAgreement(pop *engine.Dense) float64 {
	counts := b.PhaseCounts(pop)
	best := 0
	for j := 0; j < b.M; j++ {
		w := counts[j] + counts[(j+1)%b.M]
		if w > best {
			best = w
		}
	}
	return float64(best) / float64(pop.N())
}
