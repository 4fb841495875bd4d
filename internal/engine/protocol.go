package engine

import (
	"fmt"
	"slices"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// Protocol is a ruleset compiled for fast scheduling. The scheduler picks a
// rule group uniformly by weight (the paper's "one rule picked uniformly at
// random" convention of §1.3, with a field-indexed family counting as one
// logical rule) and fires the unique rule of the group matching the ordered
// agent pair, if any. Groups whose rules share a common single-cube
// initiator guard structure get an O(1) hash index; others fall back to a
// linear scan.
type Protocol struct {
	Set    *rules.Ruleset
	slots  []int32 // slot → group number
	groups []groupIndex
	// ruleWeight[i] is the weight of rule i's group, used by the counted
	// engine's exact event-rate computation.
	ruleWeight []int
	// ruleG1/ruleG2 flatten the per-rule guards into contiguous arrays —
	// the dispatch table the counted runners' incremental match index
	// walks when memoizing a new state's rule participation.
	ruleG1, ruleG2 []bitmask.Guard
	// ruleWeightF caches float64(ruleWeight) for the event-rate loops;
	// ruleWeightN is ruleWeightF[i]/NumSlots(), the rule-pick probability,
	// pre-divided so the per-leap event-rate loop skips a division. (The
	// quotient is computed once with the same rounding the loop used, so
	// leap lengths stay bit-identical.)
	ruleWeightF []float64
	ruleWeightN []float64
}

type groupIndex struct {
	start, end int32
	// Initiator hash index, valid when every rule's G1 is a single cube
	// and all rules share the same care mask.
	indexed        bool
	careLo, careHi uint64
	buckets        map[[2]uint64][]int32
	// roles[0] and roles[1] are the group's distinct initiator and
	// responder guards, which groupAdmits tests a species against.
	roles [2][]bitmask.Guard
}

// CompileProtocol prepares a ruleset for simulation. The ruleset must be
// valid (disjoint groups) and non-empty.
func CompileProtocol(rs *rules.Ruleset) *Protocol {
	if err := rs.Validate(); err != nil {
		panic("engine: " + err.Error())
	}
	if rs.Len() == 0 {
		panic("engine: empty ruleset")
	}
	p := &Protocol{Set: rs, ruleWeight: make([]int, len(rs.Rules))}
	p.slots = make([]int32, 0, rs.TotalWeight())
	p.groups = make([]groupIndex, len(rs.Groups))
	for gi, g := range rs.Groups {
		for w := 0; w < g.Weight; w++ {
			p.slots = append(p.slots, int32(gi))
		}
		for i := g.Start; i < g.End; i++ {
			p.ruleWeight[i] = g.Weight
		}
		p.groups[gi] = buildGroupIndex(rs, g)
	}
	p.ruleG1 = make([]bitmask.Guard, len(rs.Rules))
	p.ruleG2 = make([]bitmask.Guard, len(rs.Rules))
	p.ruleWeightF = make([]float64, len(rs.Rules))
	p.ruleWeightN = make([]float64, len(rs.Rules))
	for i := range rs.Rules {
		p.ruleG1[i] = rs.Rules[i].G1
		p.ruleG2[i] = rs.Rules[i].G2
		p.ruleWeightF[i] = float64(p.ruleWeight[i])
		p.ruleWeightN[i] = p.ruleWeightF[i] / float64(p.NumSlots())
	}
	for gi := range p.groups {
		g := &p.groups[gi]
		g.roles[0] = distinctGuards(p.ruleG1[g.start:g.end])
		g.roles[1] = distinctGuards(p.ruleG2[g.start:g.end])
	}
	return p
}

func buildGroupIndex(rs *rules.Ruleset, g rules.Group) groupIndex {
	idx := groupIndex{start: int32(g.Start), end: int32(g.End)}
	if g.Ordered || g.End-g.Start < 4 {
		// Ordered groups need in-order scanning; tiny groups scan faster
		// than they hash.
		return idx
	}
	first := rs.Rules[g.Start].G1
	if len(first.Cubes) != 1 {
		return idx
	}
	careLo, careHi := first.Cubes[0].CareLo, first.Cubes[0].CareHi
	for i := g.Start + 1; i < g.End; i++ {
		c := rs.Rules[i].G1.Cubes
		if len(c) != 1 || c[0].CareLo != careLo || c[0].CareHi != careHi {
			return idx
		}
	}
	idx.indexed = true
	idx.careLo, idx.careHi = careLo, careHi
	idx.buckets = make(map[[2]uint64][]int32, g.End-g.Start)
	for i := g.Start; i < g.End; i++ {
		c := rs.Rules[i].G1.Cubes[0]
		key := [2]uint64{c.WantLo, c.WantHi}
		idx.buckets[key] = append(idx.buckets[key], int32(i))
	}
	return idx
}

// distinctGuards returns the distinct guards among gs, in first-seen order.
func distinctGuards(gs []bitmask.Guard) []bitmask.Guard {
	var out []bitmask.Guard
	for _, g := range gs {
		if !slices.ContainsFunc(out, func(o bitmask.Guard) bool { return slices.Equal(o.Cubes, g.Cubes) }) {
			out = append(out, g)
		}
	}
	return out
}

// NumRules returns the number of distinct rules.
func (p *Protocol) NumRules() int { return len(p.Set.Rules) }

// NumSlots returns the number of scheduler slots (total group weight).
func (p *Protocol) NumSlots() int { return len(p.slots) }

// Rule returns rule i.
func (p *Protocol) Rule(i int) *rules.Rule { return &p.Set.Rules[i] }

// RuleWeight returns the scheduler weight of rule i's group.
func (p *Protocol) RuleWeight(i int) int { return p.ruleWeight[i] }

// PickRule draws a uniform scheduler slot and resolves it against the
// ordered pair (a, b): it returns the matching rule of the picked group, or
// nil if none matches (a non-firing interaction).
func (p *Protocol) PickRule(rng *RNG, a, b bitmask.State) *rules.Rule {
	_, r := p.PickRuleIndexed(rng, a, b)
	return r
}

// PickRuleIndexed is PickRule also reporting the fired rule's index into
// Set.Rules ((-1, nil) for a non-firing interaction), so instrumented
// runners can tally per-rule firings without a pointer-to-index search. It
// consumes exactly the same RNG draws as PickRule.
func (p *Protocol) PickRuleIndexed(rng *RNG, a, b bitmask.State) (int, *rules.Rule) {
	gi := p.slots[rng.Intn(len(p.slots))]
	return p.matchGroup(gi, a, b)
}

// matchGroup finds the unique rule of group gi matching (a, b), or
// (-1, nil).
func (p *Protocol) matchGroup(gi int32, a, b bitmask.State) (int, *rules.Rule) {
	g := &p.groups[gi]
	if g.indexed {
		key := [2]uint64{a.Lo & g.careLo, a.Hi & g.careHi}
		for _, ri := range g.buckets[key] {
			r := &p.Set.Rules[ri]
			if r.G2.Match(b) {
				return int(ri), r
			}
		}
		return -1, nil
	}
	for ri := g.start; ri < g.end; ri++ {
		r := &p.Set.Rules[ri]
		if r.G1.Match(a) && r.G2.Match(b) {
			return int(ri), r
		}
	}
	return -1, nil
}

// groupAdmits reports whether some rule of group gi could fire with s in
// the given role: its initiator guard (responder false) or its responder
// guard (responder true) matches s.
func (p *Protocol) groupAdmits(gi int32, s bitmask.State, responder bool) bool {
	g := &p.groups[gi]
	if g.indexed && !responder {
		return len(g.buckets[[2]uint64{s.Lo & g.careLo, s.Hi & g.careHi}]) > 0
	}
	role := 0
	if responder {
		role = 1
	}
	for i := range g.roles[role] {
		if g.roles[role][i].Match(s) {
			return true
		}
	}
	return false
}

// GroupTally aggregates per-rule firing counts (indexed by rule, as
// produced by obs.RuleStats or BatchRunner.Fired) into per-group totals
// keyed by group name; unnamed groups key as "group<i>". Extra trailing
// counts are ignored so a tally sized for a different protocol cannot
// corrupt the map.
func (p *Protocol) GroupTally(fired []uint64) map[string]uint64 {
	out := make(map[string]uint64, len(p.Set.Groups))
	for gi, g := range p.Set.Groups {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("group%d", gi)
		}
		var sum uint64
		for i := g.Start; i < g.End && i < len(fired); i++ {
			sum += fired[i]
		}
		out[name] += sum
	}
	return out
}

// ReachableStates enumerates the set of states reachable from the given
// initial states under the protocol's rules (bounded breadth-first closure;
// gives up and returns ok=false once more than limit states are found).
// Used to report exact automaton sizes for constant-state protocols.
func (p *Protocol) ReachableStates(initial []bitmask.State, limit int) (states []bitmask.State, ok bool) {
	seen := make(map[bitmask.State]bool, len(initial))
	queue := make([]bitmask.State, 0, len(initial))
	push := func(s bitmask.State) bool {
		if !seen[s] {
			if len(seen) >= limit {
				return false
			}
			seen[s] = true
			queue = append(queue, s)
		}
		return true
	}
	for _, s := range initial {
		if !push(s) {
			return nil, false
		}
	}
	// Closure: for every pair of known states and every rule, add the
	// successor states. Pairs include (s, s): two distinct agents can hold
	// the same state.
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		for i := 0; i <= head; i++ {
			b := queue[i]
			for _, pair := range [2][2]bitmask.State{{a, b}, {b, a}} {
				for _, r := range p.Set.Rules {
					if r.Matches(pair[0], pair[1]) {
						na, nb := r.Apply(pair[0], pair[1])
						if !push(na) || !push(nb) {
							return nil, false
						}
					}
				}
			}
		}
	}
	out := make([]bitmask.State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	return out, true
}
