package engine

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// Fuzz invariants: whatever protocol, initial counts, seed, and step budget
// the fuzzer picks, every runner must conserve the total population, keep
// every species count non-negative, and keep the incremental match tallies
// and tracker counts equal to a from-scratch recomputation.

// fuzzProtocol builds one of three fixed protocol shapes on a fresh
// two-variable space, returning the compiled protocol, the three seed
// species, and two formulas worth tracking (A, then B).
func fuzzProtocol(pick uint8) (*Protocol, [3]bitmask.State, [2]bitmask.Formula) {
	sp := bitmask.NewSpace()
	va, vb := sp.Bool("A"), sp.Bool("B")
	rs := rules.NewRuleset(sp)
	a, b := bitmask.Is(va), bitmask.Is(vb)
	na, nb := bitmask.IsNot(va), bitmask.IsNot(vb)
	blank := bitmask.And(na, nb)
	switch pick {
	case 0:
		// 3-state approximate majority.
		rs.Add(a, b, bitmask.True(), bitmask.And(na, nb))
		rs.Add(b, a, bitmask.True(), bitmask.And(na, nb))
		rs.Add(a, blank, bitmask.True(), bitmask.And(a, nb))
		rs.Add(b, blank, bitmask.True(), bitmask.And(b, na))
	case 1:
		// 4-state exact majority: A = opinion bit, B = strength bit.
		sA := bitmask.And(a, b)
		sB := bitmask.And(na, b)
		wA := bitmask.And(a, nb)
		wB := bitmask.And(na, nb)
		rs.Add(sA, sB, nb, nb)
		rs.Add(sA, wB, bitmask.True(), a)
		rs.Add(sB, wA, bitmask.True(), na)
	default:
		// Coalescence on A plus an epidemic on B.
		rs.Add(a, a, a, na)
		rs.Add(b, nb, b, b)
	}
	zero := bitmask.State{}
	species := [3]bitmask.State{va.Set(vb.Set(zero, true), true), vb.Set(zero, true), zero}
	return CompileProtocol(rs), species, [2]bitmask.Formula{a, b}
}

// checkCounted verifies population conservation and non-negativity, then
// every incrementally maintained quantity against a rescan (see
// checkIncremental).
func checkCounted(t *testing.T, label string, pop *Counted, ix *matchIndex, want int64) {
	t.Helper()
	var sum int64
	pop.ForEach(func(s bitmask.State, k int64) {
		if k < 0 {
			t.Fatalf("%s: species %v has negative count %d", label, s, k)
		}
		sum += k
	})
	if sum != want || pop.N64() != want {
		t.Fatalf("%s: population not conserved: histogram %d, N %d, want %d", label, sum, pop.N64(), want)
	}
	checkIncremental(t, label, pop, ix)
}

// checkIncremental asserts the per-rule tallies m1, m2, m12, the
// occupancy tallies occ1, occ2 and every registered tracker's count
// against a full recomputation, and that the population is flagged dirty
// whenever some slot's count is zero.
func checkIncremental(t *testing.T, label string, pop *Counted, ix *matchIndex) {
	t.Helper()
	for slot, k := range pop.cnt {
		if k == 0 && !pop.dirty {
			t.Fatalf("%s: slot %d is empty but the population is not flagged dirty", label, slot)
		}
	}
	m1 := append([]int64(nil), ix.m1...)
	m2 := append([]int64(nil), ix.m2...)
	m12 := append([]int64(nil), ix.m12...)
	occ1 := append([]int64(nil), ix.occ1...)
	occ2 := append([]int64(nil), ix.occ2...)
	counts := make([]int64, len(ix.trackers))
	for i, tr := range ix.trackers {
		counts[i] = tr.Count()
	}
	ix.resync()
	for i := range m1 {
		if m1[i] != ix.m1[i] || m2[i] != ix.m2[i] || m12[i] != ix.m12[i] {
			t.Fatalf("%s: rule %d incremental tallies (%d,%d,%d) != recomputed (%d,%d,%d)",
				label, i, m1[i], m2[i], m12[i], ix.m1[i], ix.m2[i], ix.m12[i])
		}
		if occ1[i] != ix.occ1[i] || occ2[i] != ix.occ2[i] {
			t.Fatalf("%s: rule %d incremental occupancy (%d,%d) != recomputed (%d,%d)",
				label, i, occ1[i], occ2[i], ix.occ1[i], ix.occ2[i])
		}
	}
	for i, tr := range ix.trackers {
		if counts[i] != tr.Count() {
			t.Fatalf("%s: incremental tracker %s count %d != recomputed %d", label, tr.Name, counts[i], tr.Count())
		}
	}
}

// FuzzRunnerConservation checks both counted kernels after every firing
// (every step, for the aggregate kernel). Halfway through the budget it
// registers a second tracker and compacts the population, so the checks
// also cover trackers added mid-run and slots remapped under a runner.
func FuzzRunnerConservation(f *testing.F) {
	f.Add(uint8(0), uint16(5), uint16(7), uint16(3), uint64(1), uint16(200))
	f.Add(uint8(1), uint16(66), uint16(62), uint16(0), uint64(42), uint16(400))
	f.Add(uint8(2), uint16(512), uint16(1), uint16(9), uint64(7), uint16(300))
	f.Add(uint8(1), uint16(2), uint16(0), uint16(0), uint64(99), uint16(50))
	f.Fuzz(func(t *testing.T, pick uint8, ka, kb, kc uint16, seed uint64, steps uint16) {
		proto, species, trackF := fuzzProtocol(pick % 3)
		counts := map[bitmask.State]int64{
			species[0]: int64(ka % 1024),
			species[1]: int64(kb % 1024),
			species[2]: int64(kc % 1024),
		}
		total := counts[species[0]] + counts[species[1]] + counts[species[2]]
		if total < 2 {
			t.Skip("population too small")
		}
		budget := uint64(steps % 512)
		midRun := func(pop *Counted, ix *matchIndex) {
			ix.track("b", trackF[1])
			pop.compact()
		}

		// Batch tier.
		pop := NewCounted(counts)
		br := NewCountedRunner(proto, pop, NewRNG(seed), math.Inf(1))
		br.Track("a", trackF[0])
		var fired uint64
		for fired < budget {
			if fired == budget/2 && len(br.idx.trackers) == 1 {
				midRun(pop, br.idx)
			}
			f, alive := br.RunBatch(1, 0)
			if !alive {
				break
			}
			fired += f
			checkCounted(t, "batch", pop, br.idx, total)
		}
		var tally uint64
		for _, k := range br.Fired {
			tally += k
		}
		if tally != fired || fired > budget {
			t.Fatalf("batch: Fired sums to %d, %d firings counted, budget %d", tally, fired, budget)
		}

		// Aggregate tier, both flavours: default gating (mostly geometric
		// leaps at fuzz-sized populations) and forced run decomposition.
		for _, force := range []bool{false, true} {
			label := "aggregate/leap"
			pop = NewCounted(counts)
			ar := NewCountedRunner(proto, pop, NewRNG(seed), DefaultMinRunFirings)
			if force {
				label = "aggregate/runs"
				ar.MinRunFirings = 0
			}
			ar.Track("a", trackF[0])
			for ar.FiredTotal < budget {
				if ar.FiredTotal >= budget/2 && len(ar.idx.trackers) == 1 {
					midRun(pop, ar.idx)
				}
				if !ar.LeapStep(0) {
					break
				}
				checkCounted(t, label, pop, ar.idx, total)
			}
			var atot uint64
			for _, k := range ar.Fired {
				atot += k
			}
			if atot != ar.FiredTotal {
				t.Fatalf("%s: Fired sums to %d but FiredTotal is %d", label, atot, ar.FiredTotal)
			}
			if ar.FiredTotal > ar.Interactions {
				t.Fatalf("%s: %d firings exceed %d interactions", label, ar.FiredTotal, ar.Interactions)
			}
		}

		// Dense Runner.
		dense := NewDense(int(total))
		i := 0
		for _, s := range species {
			for j := int64(0); j < counts[s]; j++ {
				dense.SetAgent(i, s)
				i++
			}
		}
		dr := NewRunner(proto, dense, NewRNG(seed))
		dtr := dr.Track("a", trackF[0])
		for i := uint64(0); i < budget; i++ {
			dr.Step()
		}
		var sum int64
		h := dense.Histogram()
		for _, k := range h {
			sum += k
		}
		if sum != total || dense.N() != int(total) {
			t.Fatalf("Runner: population not conserved: %d agents, want %d", sum, total)
		}
		if got, want := dtr.Count(), dense.CountFormula(trackF[0]); got != int64(want) {
			t.Fatalf("Runner: tracker %d != scan %d", got, want)
		}
	})
}

// TestIncrementalStateEveryFiring drives each counted kernel through a
// protocol whose species keep emptying and reappearing, checking every
// incremental tally after every step. The run must also create slots
// mid-run, register a tracker mid-run (invalidating whatever the kernel
// cached per firing) and compact the population mid-run; the test fails
// if any of those never happened, so it cannot pass vacuously.
func TestIncrementalStateEveryFiring(t *testing.T) {
	sp := bitmask.NewSpace()
	va, vb := sp.Bool("A"), sp.Bool("B")
	a, b := bitmask.Is(va), bitmask.Is(vb)
	na, nb := bitmask.IsNot(va), bitmask.IsNot(vb)
	rs := rules.NewRuleset(sp)
	rs.Add(na, bitmask.True(), a, bitmask.True()) // initiator sets A
	rs.Add(a, bitmask.True(), na, bitmask.True()) // initiator clears A
	rs.Add(a, a, b, bitmask.True())               // two A's: initiator sets B
	rs.Add(b, nb, nb, bitmask.True())             // B meets ¬B: initiator clears B
	proto := CompileProtocol(rs)
	zero := bitmask.State{}
	all := []bitmask.State{zero, va.Set(zero, true), vb.Set(zero, true), va.Set(vb.Set(zero, true), true)}

	type kernel struct {
		label string
		step  func() bool
		pop   *Counted
		ix    *matchIndex
	}
	build := func(label string, n int64) kernel {
		pop := NewCounted(map[bitmask.State]int64{zero: n})
		switch label {
		case "batch":
			br := NewCountedRunner(proto, pop, NewRNG(5), math.Inf(1))
			br.Track("A", a)
			return kernel{label, func() bool { _, ok := br.RunBatch(1, 0); return ok }, pop, br.idx}
		default:
			ar := NewCountedRunner(proto, pop, NewRNG(5), DefaultMinRunFirings)
			if label == "aggregate/runs" {
				ar.MinRunFirings = 0
			}
			ar.Track("A", a)
			return kernel{label, func() bool { return ar.LeapStep(0) }, pop, ar.idx}
		}
	}
	for _, label := range []string{"batch", "aggregate/leap", "aggregate/runs"} {
		k := build(label, 6)
		var emptied, reappeared, grew bool
		wasZero := map[bitmask.State]bool{}
		var seen [4]bool
		compacted := false
		for step := 0; step < 3000; step++ {
			if step == 300 {
				k.ix.track("B", b)
			}
			if step >= 600 && !compacted && k.pop.dirty {
				gen := k.pop.compactGen
				k.pop.compact()
				if k.pop.compactGen == gen {
					t.Fatalf("%s: compact() of a dirty population did not remap slots", label)
				}
				compacted = true
			}
			slots := k.pop.numSlots()
			if !k.step() {
				t.Fatalf("%s: protocol went silent at step %d", label, step)
			}
			grew = grew || k.pop.numSlots() > slots
			checkCounted(t, label, k.pop, k.ix, 6)
			for i, s := range all {
				c := k.pop.CountState(s)
				if c > 0 {
					seen[i] = true
					if wasZero[s] {
						reappeared = true
					}
					wasZero[s] = false
				} else if seen[i] {
					emptied = true
					wasZero[s] = true
				}
			}
		}
		if !emptied || !reappeared || !grew || !compacted || len(k.ix.trackers) != 2 {
			t.Fatalf("%s: scenario incomplete: emptied %v, reappeared %v, new slot %v, compacted %v, trackers %d",
				label, emptied, reappeared, grew, compacted, len(k.ix.trackers))
		}
	}

	// Long runs take the hypergeometric composition path; check it too.
	k := build("aggregate/runs", 60_000)
	for step := 0; step < 40; step++ {
		if !k.step() {
			t.Fatal("aggregate/runs: protocol went silent")
		}
		checkCounted(t, "aggregate/runs n=60000", k.pop, k.ix, 60_000)
	}
}
