package semilinear

import (
	"fmt"
	"strings"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// The semi-linear predicates are exactly the boolean closure of threshold
// and modulo predicates [AAD+06]. And, Or and Not close the Predicate
// interface under boolean combinations; ComboSlowBox stably computes a
// combination by running one slow blackbox per atom and deriving each
// agent's decided bits with local combination rules — the computation
// remains stable because every atom's blackbox is stable.

// AndPred is the conjunction of predicates.
type AndPred struct{ Parts []Predicate }

// Eval implements Predicate.
func (p AndPred) Eval(counts []int64) bool {
	for _, q := range p.Parts {
		if !q.Eval(counts) {
			return false
		}
	}
	return true
}

// Arity implements Predicate.
func (p AndPred) Arity() int { return maxArity(p.Parts) }

// Name implements Predicate.
func (p AndPred) Name() string { return joinNames(p.Parts, " ∧ ") }

// OrPred is the disjunction of predicates.
type OrPred struct{ Parts []Predicate }

// Eval implements Predicate.
func (p OrPred) Eval(counts []int64) bool {
	for _, q := range p.Parts {
		if q.Eval(counts) {
			return true
		}
	}
	return false
}

// Arity implements Predicate.
func (p OrPred) Arity() int { return maxArity(p.Parts) }

// Name implements Predicate.
func (p OrPred) Name() string { return joinNames(p.Parts, " ∨ ") }

// NotPred is the negation of a predicate.
type NotPred struct{ Inner Predicate }

// Eval implements Predicate.
func (p NotPred) Eval(counts []int64) bool { return !p.Inner.Eval(counts) }

// Arity implements Predicate.
func (p NotPred) Arity() int { return p.Inner.Arity() }

// Name implements Predicate.
func (p NotPred) Name() string { return "¬(" + p.Inner.Name() + ")" }

func maxArity(ps []Predicate) int {
	m := 0
	for _, p := range ps {
		if a := p.Arity(); a > m {
			m = a
		}
	}
	return m
}

func joinNames(ps []Predicate, sep string) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = "(" + p.Name() + ")"
	}
	return strings.Join(names, sep)
}

// atoms flattens a boolean combination into its threshold/mod atoms and
// returns an evaluator of the combination over the atoms' truth values.
func atoms(p Predicate) ([]Predicate, func(vals []bool) bool, error) {
	switch q := p.(type) {
	case Threshold, Mod:
		return []Predicate{q}, func(vals []bool) bool { return vals[0] }, nil
	case NotPred:
		inner, eval, err := atoms(q.Inner)
		return inner, func(vals []bool) bool { return !eval(vals) }, err
	case AndPred:
		return combineAtoms(q.Parts, func(vs []bool) bool {
			for _, v := range vs {
				if !v {
					return false
				}
			}
			return true
		})
	case OrPred:
		return combineAtoms(q.Parts, func(vs []bool) bool {
			for _, v := range vs {
				if v {
					return true
				}
			}
			return false
		})
	}
	return nil, nil, fmt.Errorf("semilinear: unsupported predicate %T", p)
}

func combineAtoms(parts []Predicate, fold func([]bool) bool) ([]Predicate, func([]bool) bool, error) {
	var all []Predicate
	var evals []func([]bool) bool
	var offsets []int
	for _, part := range parts {
		sub, eval, err := atoms(part)
		if err != nil {
			return nil, nil, err
		}
		offsets = append(offsets, len(all))
		all = append(all, sub...)
		evals = append(evals, eval)
	}
	sizes := make([]int, len(parts))
	for i := range parts {
		end := len(all)
		if i+1 < len(offsets) {
			end = offsets[i+1]
		}
		sizes[i] = end - offsets[i]
	}
	return all, func(vals []bool) bool {
		out := make([]bool, len(parts))
		for i := range parts {
			out[i] = evals[i](vals[offsets[i] : offsets[i]+sizes[i]])
		}
		return fold(out)
	}, nil
}

// ComboSlowBox stably computes a boolean combination of threshold/mod
// atoms: one SlowBox per atom plus derivation rules computing the
// combination of the atoms' decided bits into the output pair (D1, D0).
type ComboSlowBox struct {
	Pred  Predicate
	Boxes []*SlowBox
	D0    bitmask.Var
	D1    bitmask.Var

	eval func([]bool) bool
	rs   *rules.Ruleset
}

// NewComboSlowBox builds the combined slow blackbox over the space.
func NewComboSlowBox(sp *bitmask.Space, prefix string, pred Predicate) (*ComboSlowBox, error) {
	atomPreds, eval, err := atoms(pred)
	if err != nil {
		return nil, err
	}
	c := &ComboSlowBox{
		Pred: pred,
		D0:   sp.Bool(prefix + "D0"),
		D1:   sp.Bool(prefix + "D1"),
		eval: eval,
	}
	var parts []*rules.Ruleset
	for i, ap := range atomPreds {
		box := NewSlowBox(sp, fmt.Sprintf("%sA%d", prefix, i), ap)
		c.Boxes = append(c.Boxes, box)
		parts = append(parts, box.Rules())
	}

	// Derivation: an agent whose combined output disagrees with the
	// combination of its atom bits fixes it — one rule per truth-vector.
	// (2^atoms rules; combinations of more than ~6 atoms are impractical
	// anyway, matching the constant-state regime.)
	if len(atomPreds) > 16 {
		return nil, fmt.Errorf("semilinear: too many atoms (%d)", len(atomPreds))
	}
	derive := rules.NewRuleset(sp)
	var group []rules.Rule
	for mask := 0; mask < 1<<len(atomPreds); mask++ {
		vals := make([]bool, len(atomPreds))
		guard := make([]bitmask.Formula, 0, len(atomPreds)+1)
		for i := range atomPreds {
			vals[i] = mask&(1<<i) != 0
			if vals[i] {
				guard = append(guard, bitmask.And(bitmask.Is(c.Boxes[i].D1), bitmask.IsNot(c.Boxes[i].D0)))
			} else {
				guard = append(guard, bitmask.And(bitmask.Is(c.Boxes[i].D0), bitmask.IsNot(c.Boxes[i].D1)))
			}
		}
		out := eval(vals)
		var want bitmask.Formula
		if out {
			want = bitmask.And(bitmask.Is(c.D1), bitmask.IsNot(c.D0))
		} else {
			want = bitmask.And(bitmask.Is(c.D0), bitmask.IsNot(c.D1))
		}
		guard = append(guard, bitmask.Not(want))
		group = append(group, rules.MustNew(bitmask.And(guard...), bitmask.True(), want, bitmask.True()))
	}
	derive.AddGroup(prefix+"derive", 1, group...)
	parts = append(parts, derive)
	c.rs = rules.ComposeThreads(parts...)
	return c, nil
}

// Rules returns the combined ruleset.
func (c *ComboSlowBox) Rules() *rules.Ruleset { return c.rs }

// InitAgent initializes every atom's blackbox on the agent.
func (c *ComboSlowBox) InitAgent(s bitmask.State, colour int) bitmask.State {
	for _, b := range c.Boxes {
		s = b.InitAgent(s, colour)
	}
	// Seed the combined output from the (initial) atom bits.
	vals := make([]bool, len(c.Boxes))
	for i, b := range c.Boxes {
		vals[i] = b.D1.Get(s)
	}
	out := c.eval(vals)
	s = c.D1.Set(s, out)
	return c.D0.Set(s, !out)
}

// Output reads an agent's combined decided output.
func (c *ComboSlowBox) Output(s bitmask.State) bool { return c.D1.Get(s) }

func (c *ComboSlowBox) decided() (d0, d1 bitmask.Var) { return c.D0, c.D1 }

// Canonical reports whether every atom's blackbox has reached its final
// marker configuration.
func (c *ComboSlowBox) Canonical(count func(f bitmask.Formula) int64) bool {
	for _, b := range c.Boxes {
		if !b.Canonical(count) {
			return false
		}
	}
	return true
}
