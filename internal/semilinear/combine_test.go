package semilinear

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

func TestCombinatorOracles(t *testing.T) {
	inRange := AndPred{Parts: []Predicate{
		Threshold{Coef: []int{1}, C: 5},                  // x ≥ 5
		NotPred{Inner: Threshold{Coef: []int{1}, C: 11}}, // x < 11
	}}
	for x, want := range map[int64]bool{4: false, 5: true, 10: true, 11: false} {
		if got := inRange.Eval([]int64{x}); got != want {
			t.Errorf("inRange(%d) = %v", x, got)
		}
	}
	either := OrPred{Parts: []Predicate{
		Mod{Coef: []int{1}, M: 2, R: 0},   // even
		Threshold{Coef: []int{1}, C: 100}, // or huge
	}}
	if !either.Eval([]int64{4}) || either.Eval([]int64{5}) || !either.Eval([]int64{101}) {
		t.Error("either oracle wrong")
	}
	if inRange.Arity() != 1 || either.Name() == "" {
		t.Error("metadata wrong")
	}
}

// runCombo stably computes a combined predicate on the counted engine.
func runCombo(t *testing.T, pred Predicate, counts []int64, filler int64, seed uint64) (bool, bool) {
	t.Helper()
	sp := bitmask.NewSpace()
	box, err := NewComboSlowBox(sp, "C", pred)
	if err != nil {
		t.Fatal(err)
	}
	if err := box.Rules().Validate(); err != nil {
		t.Fatal(err)
	}
	table := map[bitmask.State]int64{}
	for c, k := range counts {
		if k > 0 {
			table[box.InitAgent(bitmask.State{}, c)] += k
		}
	}
	if filler > 0 {
		table[box.InitAgent(bitmask.State{}, -1)] += filler
	}
	pop := engine.NewCounted(table)
	br := engine.NewCountedRunner(engine.CompileProtocol(box.Rules()), pop, engine.NewRNG(seed), math.Inf(1))
	gD1 := bitmask.Compile(bitmask.Is(box.D1))
	gD0 := bitmask.Compile(bitmask.Is(box.D0))
	n := int64(pop.N())
	countF := func(f bitmask.Formula) int64 { return pop.CountFormula(f) }
	_, ok := br.RunTracked(func() bool {
		if !box.Canonical(countF) {
			return false
		}
		return pop.Count(gD1) == n || pop.Count(gD0) == n
	}, 1e7)
	if !ok {
		t.Fatal("combo never decided")
	}
	return pop.Count(gD1) == n, pop.Count(gD0) == n
}

// TestComboRangePredicate stably computes 5 ≤ x < 11 — a conjunction of a
// threshold and a negated threshold, i.e. a genuine semi-linear predicate
// beyond single atoms.
func TestComboRangePredicate(t *testing.T) {
	pred := AndPred{Parts: []Predicate{
		Threshold{Coef: []int{1}, C: 5},
		NotPred{Inner: Threshold{Coef: []int{1}, C: 11}},
	}}
	for _, tc := range []struct {
		x    int64
		want bool
	}{
		{4, false}, {5, true}, {10, true}, {11, false},
	} {
		d1, d0 := runCombo(t, pred, []int64{tc.x}, 60, 5)
		if d1 == d0 {
			t.Fatalf("x=%d: inconsistent decision d1=%v d0=%v", tc.x, d1, d0)
		}
		if d1 != tc.want {
			t.Errorf("x=%d: decided %v, want %v", tc.x, d1, tc.want)
		}
	}
}

// TestComboParityOrMajority combines a mod atom with a threshold atom
// across two colours: "x1 is even, or x1 > x2".
func TestComboParityOrMajority(t *testing.T) {
	pred := OrPred{Parts: []Predicate{
		Mod{Coef: []int{1, 0}, M: 2, R: 0},
		Threshold{Coef: []int{1, -1}, C: 1},
	}}
	for _, tc := range []struct {
		x1, x2 int64
	}{
		{8, 20}, {9, 20}, {21, 20}, {7, 8},
	} {
		d1, _ := runCombo(t, pred, []int64{tc.x1, tc.x2}, 30, 9)
		if want := pred.Eval([]int64{tc.x1, tc.x2}); d1 != want {
			t.Errorf("x=(%d,%d): decided %v, want %v", tc.x1, tc.x2, d1, want)
		}
	}
}

func TestComboRejectsUnknownPredicate(t *testing.T) {
	sp := bitmask.NewSpace()
	if _, err := NewComboSlowBox(sp, "C", fakePred{}); err == nil {
		t.Error("unknown predicate accepted")
	}
}

type fakePred struct{}

func (fakePred) Eval([]int64) bool { return false }
func (fakePred) Arity() int        { return 1 }
func (fakePred) Name() string      { return "fake" }
