package semilinear

import (
	"fmt"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// SlowBox is the always-correct stable computation of a threshold or
// modulo predicate in the style of [AAD+06] — the paper's "slow blackbox"
// (§6.3). Every agent starts as a marker carrying its own coefficient
// contribution; markers merge pairwise, preserving the (capped) running
// sum exactly; eventually the markers stabilize into a canonical
// configuration whose outputs all agree with the predicate, and the value
// epidemically reaches every non-marker. Convergence takes Θ(n) parallel
// time (marker coalescence), and once reached the output never changes —
// stable computation in the [DS15] sense.
//
// State per agent: marker bit M, value field V (offset-encoded for
// thresholds, residue for mod), decided-output bits D1 ("predicate true")
// and D0 ("predicate false") — the P_D^1 / P_D^0 pair of §6.3, at most one
// of which is set once the agent has heard from a marker.
type SlowBox struct {
	Pred Predicate

	M  bitmask.Var
	V  bitmask.Field
	D0 bitmask.Var
	D1 bitmask.Var

	cap int // threshold saturation bound s (0 for mod)
	mod int // modulus (0 for threshold)
	rs  *rules.Ruleset
}

// NewSlowBox builds the slow blackbox for the predicate over the space.
// Threshold coefficients and the constant must satisfy |a_i|, |c| ≤ 15
// (the value field is kept narrow; all the paper's examples qualify).
func NewSlowBox(sp *bitmask.Space, prefix string, pred Predicate) *SlowBox {
	b := &SlowBox{
		Pred: pred,
		M:    sp.Bool(prefix + "M"),
		D0:   sp.Bool(prefix + "D0"),
		D1:   sp.Bool(prefix + "D1"),
	}
	switch p := pred.(type) {
	case Threshold:
		s := abs(p.C) + 1
		for _, a := range p.Coef {
			if abs(a) > s {
				s = abs(a)
			}
		}
		if s > 15 {
			panic("semilinear: threshold constants too large for the slow box")
		}
		b.cap = s
		b.V = sp.Field(prefix+"V", uint64(2*s)) // offset encoding: v+s
		b.rs = b.buildThresholdRules(sp)
	case Mod:
		if p.M < 2 || p.M > 31 {
			panic("semilinear: modulus out of range")
		}
		b.mod = p.M
		b.V = sp.Field(prefix+"V", uint64(p.M-1))
		b.rs = b.buildModRules(sp)
	default:
		panic(fmt.Sprintf("semilinear: unsupported predicate %T", pred))
	}
	return b
}

// outBits returns the update setting the decided-output pair to the value.
func (b *SlowBox) outBits(val bool) bitmask.Formula {
	if val {
		return bitmask.And(bitmask.Is(b.D1), bitmask.IsNot(b.D0))
	}
	return bitmask.And(bitmask.Is(b.D0), bitmask.IsNot(b.D1))
}

func (b *SlowBox) thresholdOut(v int) bool {
	p := b.Pred.(Threshold)
	return v >= p.C
}

// buildThresholdRules emits the capped-merge rules. For marker values u
// (initiator) and v (responder), the merged pair is (clamp(u+v), rest);
// the responder keeps its marker only if rest ≠ 0. Both agents set their
// decided bits from the exact pair sum u+v: in the final stable
// configuration every marker's last merge involved the saturated majority
// sign (or the exact total, in the single-marker case), so all outputs
// agree with the predicate. Only both-saturated-same-sign pairs are
// genuinely inert and get no rule.
func (b *SlowBox) buildThresholdRules(sp *bitmask.Space) *rules.Ruleset {
	s := b.cap
	p := b.Pred.(Threshold)
	rs := rules.NewRuleset(sp)
	var merge []rules.Rule
	for u := -s; u <= s; u++ {
		for v := -s; v <= s; v++ {
			if (u == s && v == s) || (u == -s && v == -s) {
				continue // inert: both saturated the same way
			}
			sum := u + v
			merged := clamp(sum, -s, s)
			rest := sum - merged
			out := b.outBits(sum >= p.C)
			left := bitmask.And(bitmask.FieldIs(b.V, uint64(merged+s)), out)
			var right bitmask.Formula
			if rest == 0 {
				right = bitmask.And(bitmask.IsNot(b.M), bitmask.FieldIs(b.V, uint64(0+s)), out)
			} else {
				right = bitmask.And(bitmask.FieldIs(b.V, uint64(rest+s)), out)
			}
			merge = append(merge, rules.MustNew(
				bitmask.And(bitmask.Is(b.M), bitmask.FieldIs(b.V, uint64(u+s))),
				bitmask.And(bitmask.Is(b.M), bitmask.FieldIs(b.V, uint64(v+s))),
				left, right))
		}
	}
	rs.AddGroup("slowmerge", 1, merge...)
	rs.AddGroup("slowcast", 1, b.broadcastRules()...)
	return rs
}

// buildModRules emits the residue-merge rules: markers combine mod M into
// the initiator; the responder demotes to a non-marker echoing the output.
func (b *SlowBox) buildModRules(sp *bitmask.Space) *rules.Ruleset {
	m := b.mod
	p := b.Pred.(Mod)
	r := ((p.R % m) + m) % m
	rs := rules.NewRuleset(sp)
	var merge []rules.Rule
	for u := 0; u < m; u++ {
		for v := 0; v < m; v++ {
			sum := (u + v) % m
			out := sum == r
			merge = append(merge, rules.MustNew(
				bitmask.And(bitmask.Is(b.M), bitmask.FieldIs(b.V, uint64(u))),
				bitmask.And(bitmask.Is(b.M), bitmask.FieldIs(b.V, uint64(v))),
				bitmask.And(bitmask.FieldIs(b.V, uint64(sum)), b.outBits(out)),
				bitmask.And(bitmask.IsNot(b.M), bitmask.FieldIs(b.V, 0), b.outBits(out))))
		}
	}
	rs.AddGroup("slowmerge", 1, merge...)
	rs.AddGroup("slowcast", 1, b.broadcastRules()...)
	return rs
}

// broadcastRules let markers overwrite the decided bits of disagreeing or
// undecided non-markers.
func (b *SlowBox) broadcastRules() []rules.Rule {
	var out []rules.Rule
	for _, val := range []bool{false, true} {
		src := bitmask.And(bitmask.Is(b.M), b.outBits(val))
		dst := bitmask.And(bitmask.IsNot(b.M), bitmask.Not(b.outBits(val)))
		out = append(out, rules.MustNew(src, dst, bitmask.True(), b.outBits(val)))
	}
	return out
}

// Rules returns the slow box's ruleset.
func (b *SlowBox) Rules() *rules.Ruleset { return b.rs }

// InitAgent initializes an agent of the given input colour (-1 for an
// uncoloured agent, which starts as a zero-valued marker).
func (b *SlowBox) InitAgent(s bitmask.State, colour int) bitmask.State {
	s = b.M.Set(s, true)
	val := 0
	if colour >= 0 {
		switch p := b.Pred.(type) {
		case Threshold:
			val = p.Coef[colour]
		case Mod:
			val = ((p.Coef[colour] % p.M) + p.M) % p.M
		}
	}
	if b.mod > 0 {
		s = b.V.Set(s, uint64(val))
		return b.setOut(s, val == ((b.Pred.(Mod).R%b.mod)+b.mod)%b.mod)
	}
	s = b.V.Set(s, uint64(val+b.cap))
	return b.setOut(s, b.thresholdOut(val))
}

func (b *SlowBox) setOut(s bitmask.State, val bool) bitmask.State {
	s = b.D1.Set(s, val)
	return b.D0.Set(s, !val)
}

// Output reads an agent's decided output.
func (b *SlowBox) Output(s bitmask.State) bool { return b.D1.Get(s) }

func (b *SlowBox) decided() (d0, d1 bitmask.Var) { return b.D0, b.D1 }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Canonical reports whether the marker multiset has reached its final
// form, given a counting oracle over state formulas. For thresholds:
// markers carry at most one sign, at most one is strictly between zero and
// saturation, and a zero marker exists only as the unique marker (the
// T = 0 configuration). For mod predicates: a single marker remains.
// Together with unanimous decided bits this certifies convergence; it is a
// whole-population test used by experiments, not by agents (the paper
// notes convergence is not locally detectable).
func (b *SlowBox) Canonical(count func(f bitmask.Formula) int64) bool {
	m := bitmask.Is(b.M)
	if b.mod > 0 {
		return count(m) == 1
	}
	s := b.cap
	var pos, neg, partial, zero int64
	for v := -s; v <= s; v++ {
		c := count(bitmask.And(m, bitmask.FieldIs(b.V, uint64(v+s))))
		switch {
		case v > 0:
			pos += c
			if v < s {
				partial += c
			}
		case v < 0:
			neg += c
			if v > -s {
				partial += c
			}
		default:
			zero += c
		}
	}
	if pos > 0 && neg > 0 {
		return false
	}
	if partial > 1 {
		return false
	}
	if zero > 0 && (zero > 1 || pos+neg > 0) {
		return false
	}
	return true
}
