// Package rules models population-protocol transition rules in the paper's
// bit-mask notation ▷ (Σ1) + (Σ2) → (Σ3) + (Σ4), including the scheduler
// convention of §1.3 (exactly one rule is picked uniformly at random per
// interaction and executed if it matches) and the thread-composition
// mechanism (rulesets padded to a common slot count and merged).
//
// A Ruleset is organized into groups. A group is one logical transition
// function expanded into mask rules with pairwise-disjoint guards (e.g. one
// rule per clock position): the scheduler picks a group uniformly by weight
// and fires the unique matching rule inside it, which realizes the paper's
// remark that rule selection "can be translated into frameworks in which
// all matching rules are executed systematically". A plain rule is simply a
// singleton group.
package rules

import (
	"fmt"
	"math"
	"strings"

	"popkit/internal/bitmask"
)

// A Rule is one transition ▷ (Σ1) + (Σ2) → (Σ3) + (Σ4) between an ordered
// pair of agents: the first ("initiator") must satisfy Σ1, the second
// ("responder") Σ2; on execution the minimal updates for Σ3 and Σ4 are
// applied respectively.
type Rule struct {
	Name   string
	G1, G2 bitmask.Guard
	U1, U2 bitmask.Update

	// Copy1 and Copy2 are intra-agent bit copies applied (simultaneously)
	// to the initiator and responder states before U1/U2. See BitCopy.
	Copy1, Copy2 []BitCopy

	// Src* retain the source formulas for printing and validation.
	Src1, Src2, Src3, Src4 bitmask.Formula
}

// Matches reports whether the rule applies to the ordered pair (a, b).
func (r Rule) Matches(a, b bitmask.State) bool {
	return r.G1.Match(a) && r.G2.Match(b)
}

// Apply returns the post-interaction states. It does not check Matches.
// Bit copies run first (reading the pre-interaction state), then the mask
// updates.
func (r *Rule) Apply(a, b bitmask.State) (bitmask.State, bitmask.State) {
	return r.U1.Apply(applyCopies(a, r.Copy1)), r.U2.Apply(applyCopies(b, r.Copy2))
}

// String renders the rule in the paper's notation.
func (r Rule) String() string {
	s := fmt.Sprintf("(%s) + (%s) -> (%s) + (%s)",
		r.Src1.String(), r.Src2.String(), r.Src3.String(), r.Src4.String())
	if len(r.Copy1) > 0 || len(r.Copy2) > 0 {
		s += fmt.Sprintf(" [copies %d|%d]", len(r.Copy1), len(r.Copy2))
	}
	if r.Name != "" {
		s = r.Name + ": " + s
	}
	return s
}

// New builds a rule from the four formulas, compiling guards and minimal
// updates. It returns an error if Σ3 or Σ4 is not a conjunction of literals.
func New(s1, s2, s3, s4 bitmask.Formula) (Rule, error) {
	u1, err := bitmask.CompileUpdate(s3)
	if err != nil {
		return Rule{}, fmt.Errorf("left target: %w", err)
	}
	u2, err := bitmask.CompileUpdate(s4)
	if err != nil {
		return Rule{}, fmt.Errorf("right target: %w", err)
	}
	return Rule{
		G1: bitmask.Compile(s1), G2: bitmask.Compile(s2),
		U1: u1, U2: u2,
		Src1: s1, Src2: s2, Src3: s3, Src4: s4,
	}, nil
}

// MustNew is New for statically-known rules; it panics on error.
func MustNew(s1, s2, s3, s4 bitmask.Formula) Rule {
	r, err := New(s1, s2, s3, s4)
	if err != nil {
		panic("rules: " + err.Error())
	}
	return r
}

// A Group is one scheduler unit: a contiguous range of rules with
// pairwise-disjoint guards, picked as a whole with the given weight.
type Group struct {
	Name   string
	Weight int
	// Start and End delimit the group's rules within Ruleset.Rules.
	Start, End int
	// Ordered marks a group with first-match-wins semantics: rules may
	// overlap and the earliest matching rule fires (the paper's systematic
	// "top-down" execution). Ordered groups are not supported by the
	// counted engine, whose event-rate computation needs disjointness.
	Ordered bool
}

// A Ruleset is an ordered collection of rule groups sharing one variable
// space.
type Ruleset struct {
	Space  *bitmask.Space
	Rules  []Rule
	Groups []Group
}

// NewRuleset returns an empty ruleset over the given space.
func NewRuleset(sp *bitmask.Space) *Ruleset {
	return &Ruleset{Space: sp}
}

// Add appends a singleton group built from the four formulas, panicking on
// malformed right-hand sides (these are static protocol definitions).
func (rs *Ruleset) Add(s1, s2, s3, s4 bitmask.Formula) *Ruleset {
	return rs.AddGroup("", 1, MustNew(s1, s2, s3, s4))
}

// AddWeighted appends a singleton group with the given scheduler weight.
func (rs *Ruleset) AddWeighted(weight int, s1, s2, s3, s4 bitmask.Formula) *Ruleset {
	return rs.AddGroup("", weight, MustNew(s1, s2, s3, s4))
}

// AddRule appends a prebuilt rule as a singleton group of weight 1.
func (rs *Ruleset) AddRule(r Rule) *Ruleset {
	return rs.AddGroup(r.Name, 1, r)
}

// AddGroup appends a group of rules sharing one scheduler slot set. The
// rules' guards must be pairwise disjoint (checked by Validate).
func (rs *Ruleset) AddGroup(name string, weight int, group ...Rule) *Ruleset {
	if weight < 1 {
		panic("rules: group weight must be ≥ 1")
	}
	if len(group) == 0 {
		panic("rules: empty group")
	}
	start := len(rs.Rules)
	rs.Rules = append(rs.Rules, group...)
	rs.Groups = append(rs.Groups, Group{Name: name, Weight: weight, Start: start, End: len(rs.Rules)})
	return rs
}

// AddOrderedGroup appends a group with first-match-wins semantics: rules
// may overlap, and the earliest matching rule fires. Used for transformed
// rulesets whose catch-all rules overlap the specific ones.
func (rs *Ruleset) AddOrderedGroup(name string, weight int, group ...Rule) *Ruleset {
	rs.AddGroup(name, weight, group...)
	rs.Groups[len(rs.Groups)-1].Ordered = true
	return rs
}

// HasOrderedGroups reports whether any group uses first-match semantics.
func (rs *Ruleset) HasOrderedGroups() bool {
	for _, g := range rs.Groups {
		if g.Ordered {
			return true
		}
	}
	return false
}

// Len returns the number of rules.
func (rs *Ruleset) Len() int { return len(rs.Rules) }

// NumGroups returns the number of scheduler groups.
func (rs *Ruleset) NumGroups() int { return len(rs.Groups) }

// TotalWeight returns the sum of group weights (the number of scheduler
// slots).
func (rs *Ruleset) TotalWeight() int {
	w := 0
	for _, g := range rs.Groups {
		w += g.Weight
	}
	return w
}

// GroupRules returns the rule slice of group i (aliasing the ruleset).
func (rs *Ruleset) GroupRules(i int) []Rule {
	g := rs.Groups[i]
	return rs.Rules[g.Start:g.End]
}

// Clone returns a copy whose rule and group slices are independent.
func (rs *Ruleset) Clone() *Ruleset {
	out := &Ruleset{
		Space:  rs.Space,
		Rules:  make([]Rule, len(rs.Rules)),
		Groups: make([]Group, len(rs.Groups)),
	}
	copy(out.Rules, rs.Rules)
	copy(out.Groups, rs.Groups)
	return out
}

// Guarded returns a copy of the ruleset with the extra formula conjoined to
// both left-hand guards of every rule, as in the compilation steps that add
// Z(#) branch flags and Π_τ time-path filters (§4, §5.4). Right-hand sides
// are unchanged.
func (rs *Ruleset) Guarded(extra bitmask.Formula) *Ruleset {
	out := rs.Clone()
	for i := range out.Rules {
		r := &out.Rules[i]
		r.Src1 = bitmask.And(extra, r.Src1)
		r.Src2 = bitmask.And(extra, r.Src2)
		r.G1 = bitmask.Compile(r.Src1)
		r.G2 = bitmask.Compile(r.Src2)
	}
	return out
}

// String renders all rules, one per line, with group separators.
func (rs *Ruleset) String() string {
	var b strings.Builder
	for gi, g := range rs.Groups {
		if gi > 0 {
			b.WriteByte('\n')
		}
		label := g.Name
		if label == "" {
			label = fmt.Sprintf("group%d", gi)
		}
		fmt.Fprintf(&b, "group %s (weight %d):", label, g.Weight)
		for _, r := range rs.Rules[g.Start:g.End] {
			b.WriteString("\n  ")
			b.WriteString(r.String())
		}
	}
	return b.String()
}

// Validate checks structural sanity: positive group weights, satisfiable
// guards, and pairwise-disjoint guards within each multi-rule group (the
// property that makes "fire the unique matching rule" well defined).
func (rs *Ruleset) Validate() error {
	for gi, g := range rs.Groups {
		if g.Weight < 1 {
			return fmt.Errorf("group %d (%s): weight %d < 1", gi, g.Name, g.Weight)
		}
		for i := g.Start; i < g.End; i++ {
			r := &rs.Rules[i]
			if r.G1.IsFalse() || r.G2.IsFalse() {
				return fmt.Errorf("group %d (%s) rule %d (%s): unsatisfiable guard",
					gi, g.Name, i-g.Start, r.Name)
			}
			if g.Ordered {
				continue
			}
			for j := g.Start; j < i; j++ {
				o := &rs.Rules[j]
				if guardsIntersect(r.G1, o.G1) && guardsIntersect(r.G2, o.G2) {
					return fmt.Errorf("group %d (%s): rules %d and %d overlap",
						gi, g.Name, j-g.Start, i-g.Start)
				}
			}
		}
	}
	return nil
}

// guardsIntersect reports whether some state matches both guards.
func guardsIntersect(a, b bitmask.Guard) bool {
	for _, ca := range a.Cubes {
		for _, cb := range b.Cubes {
			if _, ok := cubeAnd(ca, cb); ok {
				return true
			}
		}
	}
	return false
}

func cubeAnd(a, b bitmask.Cube) (bitmask.Cube, bool) {
	if conflict := (a.CareLo & b.CareLo) & (a.WantLo ^ b.WantLo); conflict != 0 {
		return bitmask.Cube{}, false
	}
	if conflict := (a.CareHi & b.CareHi) & (a.WantHi ^ b.WantHi); conflict != 0 {
		return bitmask.Cube{}, false
	}
	return bitmask.Cube{
		CareLo: a.CareLo | b.CareLo, WantLo: a.WantLo | b.WantLo,
		CareHi: a.CareHi | b.CareHi, WantHi: a.WantHi | b.WantHi,
	}, true
}

// gcd/lcm for thread padding.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// ComposeThreads merges the rulesets of several threads into one flat
// ruleset following §1.3: each thread's groups are weighted up so every
// thread occupies the same number of scheduler slots (the least common
// multiple of the per-thread totals), which makes the scheduler pick each
// thread with equal probability. All rulesets must share one Space.
func ComposeThreads(threads ...*Ruleset) *Ruleset {
	if len(threads) == 0 {
		panic("rules: no threads to compose")
	}
	sp := threads[0].Space
	l := 1
	for _, t := range threads {
		if t.Space != sp {
			panic("rules: threads use different variable spaces")
		}
		if t.TotalWeight() == 0 {
			panic("rules: empty thread")
		}
		l = lcm(l, t.TotalWeight())
		if l > math.MaxInt32 {
			panic("rules: thread weight overflow")
		}
	}
	out := NewRuleset(sp)
	for _, t := range threads {
		factor := l / t.TotalWeight()
		base := len(out.Rules)
		out.Rules = append(out.Rules, t.Rules...)
		for _, g := range t.Groups {
			ng := g
			ng.Weight = g.Weight * factor
			ng.Start += base
			ng.End += base
			out.Groups = append(out.Groups, ng)
		}
	}
	return out
}

// Concat appends the groups of each ruleset in order without reweighting.
// Use ComposeThreads for fair thread composition.
func Concat(sets ...*Ruleset) *Ruleset {
	if len(sets) == 0 {
		panic("rules: nothing to concatenate")
	}
	out := NewRuleset(sets[0].Space)
	for _, s := range sets {
		if s.Space != out.Space {
			panic("rules: rulesets use different variable spaces")
		}
		base := len(out.Rules)
		out.Rules = append(out.Rules, s.Rules...)
		for _, g := range s.Groups {
			ng := g
			ng.Start += base
			ng.End += base
			out.Groups = append(out.Groups, ng)
		}
	}
	return out
}
