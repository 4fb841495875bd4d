package engine

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// counterProtocol builds a mod-q counter advanced on every interaction as a
// single indexed group: P==v → P==v+1 (mod q).
func counterProtocol(q uint64) (*Protocol, bitmask.Field) {
	sp := bitmask.NewSpace()
	f := sp.Field("P", q-1)
	var grp []rules.Rule
	for v := uint64(0); v < q; v++ {
		grp = append(grp, rules.MustNew(
			bitmask.FieldIs(f, v), bitmask.True(),
			bitmask.FieldIs(f, (v+1)%q), bitmask.True()))
	}
	rs := rules.NewRuleset(sp)
	rs.AddGroup("advance", 1, grp...)
	return CompileProtocol(rs), f
}

func TestGroupIndexedDispatch(t *testing.T) {
	p, f := counterProtocol(16)
	pop := NewDense(10)
	r := NewRunner(p, pop, NewRNG(1))
	// Every interaction advances exactly the initiator's counter.
	for i := 0; i < 1000; i++ {
		if !r.Step() {
			t.Fatal("counter group failed to fire")
		}
	}
	var total uint64
	pop.ForEach(func(_ int, s bitmask.State) { total += f.Get(s) })
	// 1000 firings each advanced one counter by 1 (mod 16); totals mod 16
	// can wrap, so just check counters are in range and something moved.
	if total == 0 {
		t.Error("no counter advanced")
	}
}

func TestGroupUniqueMatchSemantics(t *testing.T) {
	// With q=16 the group is indexed; with q=2 (small) it scans linearly.
	// Both must fire exactly one rule per interaction.
	for _, q := range []uint64{2, 16} {
		p, f := counterProtocol(q)
		pop := NewDense(4)
		r := NewRunner(p, pop, NewRNG(9))
		before := make([]uint64, 4)
		for step := 0; step < 200; step++ {
			for i := 0; i < 4; i++ {
				before[i] = f.Get(pop.Agent(i))
			}
			r.Step()
			changed := 0
			for i := 0; i < 4; i++ {
				if f.Get(pop.Agent(i)) != before[i] {
					changed++
				}
			}
			if changed > 1 {
				t.Fatalf("q=%d: one interaction changed %d agents", q, changed)
			}
		}
	}
}

func TestBatchRunnerGroupWeights(t *testing.T) {
	// Two groups: a heavy counter group and a light toggler. The counted
	// engine must weight events by group, not by rule count.
	sp := bitmask.NewSpace()
	f := sp.Field("P", 7)
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	var grp []rules.Rule
	for v := uint64(0); v < 8; v++ {
		grp = append(grp, rules.MustNew(
			bitmask.FieldIs(f, v), bitmask.True(),
			bitmask.FieldIs(f, (v+1)%8), bitmask.True()))
	}
	rs.AddGroup("counter", 3, grp...)
	rs.Add(bitmask.IsNot(a), bitmask.True(), bitmask.Is(a), bitmask.True()) // weight 1

	p := CompileProtocol(rs)
	if p.NumSlots() != 4 {
		t.Fatalf("NumSlots = %d, want 4", p.NumSlots())
	}
	if p.RuleWeight(0) != 3 || p.RuleWeight(8) != 1 {
		t.Fatalf("RuleWeight = %d,%d", p.RuleWeight(0), p.RuleWeight(8))
	}

	pop := NewCounted(map[bitmask.State]int64{{}: 100})
	br := NewCountedRunner(p, pop, NewRNG(4), math.Inf(1))
	// Fire 4000 events. The counter group holds 3 of 4 slots and always
	// matches; the toggler (1 slot) matches only while ¬A agents remain.
	counterFires, togglerFires := 0, 0
	gA := bitmask.Compile(bitmask.Is(a))
	for i := 0; i < 4000; i++ {
		beforeA := pop.Count(gA)
		if !br.LeapStep(0) {
			break
		}
		if pop.Count(gA) != beforeA {
			togglerFires++
		} else {
			counterFires++
		}
	}
	if togglerFires == 0 || counterFires == 0 {
		t.Fatalf("fires: counter=%d toggler=%d", counterFires, togglerFires)
	}
	// All 100 agents acquire A exactly once, then the toggler goes quiet.
	if togglerFires != 100 {
		t.Errorf("toggler fired %d times, want exactly 100", togglerFires)
	}
	// After saturation only 3/4 of slots can fire, so interactions must
	// exceed events (leaping over the dead toggler slot).
	if br.Interactions <= 4000 {
		t.Errorf("Interactions = %d, expected > 4000 with a quiet slot", br.Interactions)
	}
	// Population size is conserved throughout.
	if pop.N() != 100 {
		t.Errorf("population size drifted to %d", pop.N())
	}
}

func TestMatchGroupReturnsNilOnMiss(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(a), bitmask.Is(a), bitmask.IsNot(a), bitmask.True())
	p := CompileProtocol(rs)
	if _, r := p.matchGroup(0, bitmask.State{}, bitmask.State{}); r != nil {
		t.Error("matchGroup matched a rule whose guard fails")
	}
}
