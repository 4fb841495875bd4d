package engine

import (
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
// species, and a formula worth tracking.
func fuzzProtocol(pick uint8) (*Protocol, [3]bitmask.State, bitmask.Formula) {
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
	return CompileProtocol(rs), species, bitmask.Is(va)
}

// checkCounted verifies population conservation and non-negativity, plus
// the incremental tallies and trackers against a full recomputation.
func checkCounted(t *testing.T, label string, pop *Counted, ix *matchIndex, tr *Tracker, want int64) {
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
	m1 := append([]int64(nil), ix.m1...)
	m2 := append([]int64(nil), ix.m2...)
	m12 := append([]int64(nil), ix.m12...)
	occ1 := append([]int64(nil), ix.occ1...)
	occ2 := append([]int64(nil), ix.occ2...)
	trCount := tr.Count()
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
	if trCount != tr.Count() {
		t.Fatalf("%s: incremental tracker count %d != recomputed %d", label, trCount, tr.Count())
	}
}

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

		// BatchRunner.
		pop := NewCounted(counts)
		br := NewBatchRunner(proto, pop, NewRNG(seed))
		tr := br.Track("a", trackF)
		br.RunBatch(budget, 0)
		checkCounted(t, "BatchRunner", pop, br.idx, tr, total)
		var fired uint64
		for _, k := range br.Fired {
			fired += k
		}
		if fired > budget {
			t.Fatalf("BatchRunner: fired %d rule firings with budget %d", fired, budget)
		}

		// AggregateRunner, both flavours: default gating (mostly geometric
		// leaps at fuzz-sized populations) and forced run decomposition.
		for _, force := range []bool{false, true} {
			label := "AggregateRunner/leap"
			pop = NewCounted(counts)
			ar := NewAggregateRunner(proto, pop, NewRNG(seed))
			if force {
				label = "AggregateRunner/aggregate"
				ar.MinRunFirings = 0
			}
			tr = ar.Track("a", trackF)
			ar.RunBatch(budget, 0)
			checkCounted(t, label, pop, ar.idx, tr, total)
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
		dtr := dr.Track("a", trackF)
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
		if got, want := dtr.Count(), dense.CountFormula(trackF); got != int64(want) {
			t.Fatalf("Runner: tracker %d != scan %d", got, want)
		}
	})
}
