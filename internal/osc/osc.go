// Package osc implements the self-organizing rock–paper–scissors oscillator
// underlying the paper's phase clocks (§5.2, building on the 7-state
// oscillator protocol P_o of [DK18]).
//
// Each non-source agent holds one of three species A_0, A_1, A_2 together
// with a strength flag (weak "+" / strong "++"); agents with the control
// flag X act as sources that reseed random species. Species A_i preys on
// A_{i−1}: a strong predator always converts its prey, a weak one converts
// with reduced probability, and converted agents re-enter the cycle weak.
// The weak→strong maturation delay destabilizes the central fixed point of
// the classic rock–paper–scissors dynamics, so from any configuration the
// system spirals out to a global limit cycle in O(log n) rounds and then
// oscillates with period Θ(log n), exactly the Theorem 5.1 contract. The
// exact rule table of [DK18] is not reprinted in the paper; this package
// realizes the same state count and contract with parameters fixed by the
// calibration tests in this package (see DESIGN.md, "Substitutions").
package osc

import (
	"fmt"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/rules"
)

// Params are the oscillator rule weights. The defaults are the calibrated
// values validated by TestOscillatorContract.
type Params struct {
	// StrongPrey is the weight of the strong-predator conversion rule.
	StrongPrey int
	// WeakPrey is the weight of the weak-predator conversion rule.
	WeakPrey int
	// Mature is the weight of the weak→strong maturation rule.
	Mature int
	// Source is the per-species weight of the X-reseeding rule.
	Source int
}

// DefaultParams returns the calibrated oscillator parameters: strong
// predation at three times the maturation rate, no weak predation, and
// sources reseeding at the maturation rate. With these weights the
// population escapes the central region in O(log n) rounds and oscillates
// with period ≈ 6·ln n for n between 10³ and 10⁶ (see the calibration tests
// and EXPERIMENTS.md E3).
func DefaultParams() Params {
	return Params{StrongPrey: 3, WeakPrey: 0, Mature: 1, Source: 1}
}

func (p Params) validate() error {
	if p.StrongPrey < 1 {
		return fmt.Errorf("osc: StrongPrey must be ≥ 1")
	}
	if p.WeakPrey < 0 || p.Mature < 1 || p.Source < 1 {
		return fmt.Errorf("osc: negative or zero weight")
	}
	return nil
}

// Oscillator bundles the oscillator's variables and ruleset over a shared
// space. The X variable is supplied by the caller (it is owned by the
// control-state process of §5.2's "Controlling |X|" paragraphs and shared by
// every clock in a hierarchy).
type Oscillator struct {
	Species bitmask.Field // values 0, 1, 2
	Strong  bitmask.Var
	X       bitmask.Var
	Params  Params

	rs *rules.Ruleset
}

// New allocates the oscillator's variables (prefixed for uniqueness) in the
// space and builds its ruleset. x is the shared control variable.
func New(sp *bitmask.Space, prefix string, x bitmask.Var, p Params) *Oscillator {
	if err := p.validate(); err != nil {
		panic(err.Error())
	}
	o := &Oscillator{
		Species: sp.Field(prefix+"Sp", 2),
		Strong:  sp.Bool(prefix + "St"),
		X:       x,
		Params:  p,
	}
	o.rs = rules.NewRuleset(sp)
	notX := bitmask.IsNot(x)
	for i := uint64(0); i < 3; i++ {
		prev := (i + 2) % 3
		spI := bitmask.FieldIs(o.Species, i)
		spPrev := bitmask.FieldIs(o.Species, prev)
		becomeWeakI := bitmask.And(spI, bitmask.IsNot(o.Strong))

		// Strong predation: A_i^{++} converts A_{i-1} to A_i^{+}.
		o.rs.AddWeighted(p.StrongPrey,
			bitmask.And(notX, spI, bitmask.Is(o.Strong)),
			bitmask.And(notX, spPrev),
			bitmask.True(),
			becomeWeakI)
		// Weak predation (optional): A_i^{+} converts A_{i-1} to A_i^{+}.
		if p.WeakPrey > 0 {
			o.rs.AddWeighted(p.WeakPrey,
				bitmask.And(notX, spI, bitmask.IsNot(o.Strong)),
				bitmask.And(notX, spPrev),
				bitmask.True(),
				becomeWeakI)
		}
		// Source: X converts any non-source agent to a uniformly random
		// species (weak). One rule per species realizes the uniform choice.
		o.rs.AddWeighted(p.Source,
			bitmask.Is(x),
			notX,
			bitmask.True(),
			becomeWeakI)
	}
	// Maturation: a weak agent hardens after a meeting (as initiator).
	o.rs.AddWeighted(p.Mature,
		bitmask.And(notX, bitmask.IsNot(o.Strong)),
		bitmask.True(),
		bitmask.Is(o.Strong),
		bitmask.True())
	return o
}

// Ruleset returns the oscillator's rules (shared; callers must not mutate).
func (o *Oscillator) Ruleset() *rules.Ruleset { return o.rs }

// InitState returns the state bits for a non-source agent of the given
// species and strength, merged into base.
func (o *Oscillator) InitState(base bitmask.State, species uint64, strong bool) bitmask.State {
	base = o.Species.Set(base, species)
	return o.Strong.Set(base, strong)
}

// InitUniform initializes every agent of the population with a uniformly
// random weak species, leaving X and all other bits untouched.
func (o *Oscillator) InitUniform(pop *engine.Dense, rng *engine.RNG) {
	pop.Remap(3, func(int) int { return rng.Intn(3) }, func(s bitmask.State, species int) bitmask.State {
		s = o.Species.Set(s, uint64(species))
		return o.Strong.Set(s, false)
	})
}

// RandSpecies returns a species drawn from the skewed distribution
// (60%, 30%, 10%) used to initialize oscillators off-centre, as Theorem
// 5.2 permits ("initialized so that a_min < n/10"): the system starts near
// the limit cycle instead of spending Θ(log n) slow rounds escaping the
// symmetric fixed point — which matters most for the slowed copies in a
// clock hierarchy.
func RandSpecies(rng *engine.RNG) uint64 {
	switch r := rng.Intn(10); {
	case r < 6:
		return 0
	case r < 9:
		return 1
	default:
		return 2
	}
}

// SpeciesCounts tallies the species of non-source agents.
func (o *Oscillator) SpeciesCounts(pop *engine.Dense) [3]int {
	var out [3]int
	gX := bitmask.Compile(bitmask.Is(o.X))
	for i := 0; i < pop.N(); i++ {
		s := pop.Agent(i)
		if gX.Match(s) {
			continue
		}
		out[o.Species.Get(s)]++
	}
	return out
}

// SpeciesCountsFrom tallies the species of non-source agents from a
// population histogram (as produced by HistogramInto). The oscillator only
// occupies a handful of states, so this costs O(#species) per sample instead
// of the O(n) per-agent scan of SpeciesCounts — the difference dominates
// trajectory collection, which samples every couple of rounds.
func (o *Oscillator) SpeciesCountsFrom(h map[bitmask.State]int64) [3]int {
	var out [3]int
	gX := bitmask.Compile(bitmask.Is(o.X))
	for s, k := range h {
		if gX.Match(s) {
			continue
		}
		out[o.Species.Get(s)] += int(k)
	}
	return out
}

// MinSpecies returns a_min = min_i |A_i| for the population.
func (o *Oscillator) MinSpecies(pop *engine.Dense) int {
	c := o.SpeciesCounts(pop)
	m := c[0]
	for _, v := range c[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Dominant returns the species held by the most agents and its count.
func (o *Oscillator) Dominant(pop *engine.Dense) (species int, count int) {
	c := o.SpeciesCounts(pop)
	best := 0
	for i, v := range c {
		if v > c[best] {
			best = i
		}
	}
	return best, c[best]
}
