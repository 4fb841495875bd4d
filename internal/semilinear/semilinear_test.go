package semilinear

import (
	"math"
	"testing"
	"testing/quick"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

func TestPredicateOracle(t *testing.T) {
	maj := MajorityPredicate()
	if !maj.Eval([]int64{5, 4}) || maj.Eval([]int64{4, 5}) || maj.Eval([]int64{4, 4}) {
		t.Error("majority oracle wrong")
	}
	th := Threshold{Coef: []int{2, -1}, C: 3}
	if !th.Eval([]int64{2, 1}) || th.Eval([]int64{1, 0}) {
		t.Error("threshold oracle wrong")
	}
	mod := Mod{Coef: []int{1}, M: 3, R: 1}
	if !mod.Eval([]int64{4}) || mod.Eval([]int64{3}) {
		t.Error("mod oracle wrong")
	}
	frac := AtLeastFraction(2, 1, 3) // x1 ≥ (1/3)(x1+x2)
	if !frac.Eval([]int64{10, 20}) || frac.Eval([]int64{9, 21}) {
		t.Error("fraction oracle wrong")
	}
}

func TestModNegativeCoefficients(t *testing.T) {
	mod := Mod{Coef: []int{-1}, M: 3, R: 2}
	// -4 mod 3 = 2.
	if !mod.Eval([]int64{4}) {
		t.Error("negative sum handled wrong")
	}
}

// runSlowBox runs just the slow blackbox on a counted population until
// silent or budget exhausted; returns the final per-agent outputs.
func runSlowBox(t *testing.T, pred Predicate, counts []int64, filler int64, seed uint64) (agree bool, value bool, rounds float64) {
	t.Helper()
	sp := bitmask.NewSpace()
	box := NewSlowBox(sp, "S", pred)
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
	p := engine.CompileProtocol(box.Rules())
	br := engine.NewCountedRunner(p, pop, engine.NewRNG(seed), math.Inf(1))

	gD1 := bitmask.Compile(bitmask.Is(box.D1))
	gD0 := bitmask.Compile(bitmask.Is(box.D0))
	n := int64(pop.N())
	countF := func(f bitmask.Formula) int64 { return pop.CountFormula(f) }
	r, _ := br.RunTracked(func() bool {
		if !box.Canonical(countF) {
			return false
		}
		return pop.Count(gD1) == n || pop.Count(gD0) == n
	}, 1e7)
	if pop.Count(gD1) == n {
		return true, true, r
	}
	if pop.Count(gD0) == n {
		return true, false, r
	}
	return false, false, r
}

func TestSlowBoxMajority(t *testing.T) {
	cases := []struct {
		a, b   int64
		filler int64
		want   bool
	}{
		{30, 20, 0, true},
		{20, 30, 0, false},
		{26, 25, 10, true},
		{25, 26, 10, false},
		{25, 25, 0, false}, // tie: x1−x2 ≥ 1 is false
	}
	for _, tc := range cases {
		agree, val, _ := runSlowBox(t, MajorityPredicate(), []int64{tc.a, tc.b}, tc.filler, 3)
		if !agree {
			t.Fatalf("a=%d b=%d: no unanimous decision", tc.a, tc.b)
		}
		if val != tc.want {
			t.Errorf("a=%d b=%d: decided %v, want %v", tc.a, tc.b, val, tc.want)
		}
	}
}

func TestSlowBoxThresholdWithCoefficients(t *testing.T) {
	// 2·x1 − x2 ≥ 3
	pred := Threshold{Coef: []int{2, -1}, C: 3}
	cases := []struct {
		x1, x2 int64
	}{
		{10, 16}, {10, 18}, {2, 1}, {1, 0}, {5, 7}, {0, 4},
	}
	for _, tc := range cases {
		agree, val, _ := runSlowBox(t, pred, []int64{tc.x1, tc.x2}, 5, 7)
		if !agree {
			t.Fatalf("x=(%d,%d): no unanimous decision", tc.x1, tc.x2)
		}
		if want := pred.Eval([]int64{tc.x1, tc.x2}); val != want {
			t.Errorf("x=(%d,%d): decided %v, want %v", tc.x1, tc.x2, val, want)
		}
	}
}

func TestSlowBoxMod(t *testing.T) {
	pred := Mod{Coef: []int{1}, M: 3, R: 1}
	for _, x := range []int64{1, 2, 3, 4, 6, 7, 30, 31} {
		agree, val, _ := runSlowBox(t, pred, []int64{x}, 40, 11)
		if !agree {
			t.Fatalf("x=%d: no unanimous decision", x)
		}
		if want := pred.Eval([]int64{x}); val != want {
			t.Errorf("x=%d: decided %v, want %v", x, val, want)
		}
	}
}

// TestSlowBoxQuick property-tests the slow box against the oracle on
// random small instances.
func TestSlowBoxQuick(t *testing.T) {
	pred := Threshold{Coef: []int{1, -1}, C: 0} // x1 ≥ x2
	cfg := &quick.Config{MaxCount: 12}
	seed := uint64(100)
	prop := func(a, b uint8) bool {
		x1 := int64(a%40) + 1
		x2 := int64(b%40) + 1
		seed++
		agree, val, _ := runSlowBox(t, pred, []int64{x1, x2}, 3, seed)
		return agree && val == (x1 >= x2)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSlowBoxStability: after deciding, further interactions never change
// any agent's decided output (the stable-computation property).
func TestSlowBoxStability(t *testing.T) {
	sp := bitmask.NewSpace()
	box := NewSlowBox(sp, "S", MajorityPredicate())
	table := map[bitmask.State]int64{
		box.InitAgent(bitmask.State{}, 0):  30,
		box.InitAgent(bitmask.State{}, 1):  20,
		box.InitAgent(bitmask.State{}, -1): 10,
	}
	pop := engine.NewCounted(table)
	p := engine.CompileProtocol(box.Rules())
	br := engine.NewCountedRunner(p, pop, engine.NewRNG(5), math.Inf(1))
	gD1 := bitmask.Compile(bitmask.Is(box.D1))
	n := int64(pop.N())
	countF := func(f bitmask.Formula) int64 { return pop.CountFormula(f) }
	if _, ok := br.RunTracked(func() bool {
		return box.Canonical(countF) && pop.Count(gD1) == n
	}, 1e7); !ok {
		t.Fatal("never decided")
	}
	// Keep running; the decision must not budge.
	br.RunTracked(func() bool { return false }, 5000)
	if pop.Count(gD1) != n {
		t.Errorf("decision destabilized: %d/%d still decided true", pop.Count(gD1), n)
	}
}

func TestFastBoxTokenInvariant(t *testing.T) {
	// Cancellation preserves the signed difference exactly.
	sp := bitmask.NewSpace()
	pred := Threshold{Coef: []int{1, -1}, C: 1}
	box := NewFastBox(sp, "F", pred)
	pop := engine.NewDenseInit(100, func(i int) bitmask.State {
		colour := -1
		switch {
		case i < 40:
			colour = 0
		case i < 75:
			colour = 1
		}
		return box.TokenState(bitmask.State{}, colour, i == 0)
	})
	// Signed difference: 40 − 35 − (C−1=0) = 5.
	diff := func() int64 {
		var d int64
		pop.ForEach(func(_ int, s bitmask.State) {
			d += int64(box.Pos.Get(s)) - int64(box.Neg.Get(s))
		})
		return d
	}
	if diff() != 5 {
		t.Fatalf("initial diff = %d, want 5", diff())
	}
	p := engine.CompileProtocol(box.CancelRules())
	r := engine.NewRunner(p, pop, engine.NewRNG(1))
	r.RunRounds(200)
	if diff() != 5 {
		t.Errorf("cancellation broke the invariant: diff = %d", diff())
	}
	gNeg := bitmask.Compile(box.HasNeg())
	if pop.Count(gNeg) != 0 {
		t.Errorf("negative tokens survived cancellation: %d holders", pop.Count(gNeg))
	}
}

func TestExactMajorityThreshold(t *testing.T) {
	const n = 400
	for _, tc := range []struct {
		nA, nB int
	}{
		{120, 80}, {80, 120}, {101, 100}, {100, 101},
	} {
		colour := func(i int) int {
			switch {
			case i < tc.nA:
				return 0
			case i < tc.nA+tc.nB:
				return 1
			}
			return -1
		}
		counts := []int64{int64(tc.nA), int64(tc.nB)}
		e := NewExact(MajorityPredicate(), n, colour, 13)
		iters, ok := e.RunUntilStable(colour, counts, 600)
		if !ok {
			dec, val := e.SlowDecided()
			t.Fatalf("nA=%d nB=%d: not stable after %d iters (out=%d/%d leaders=%d slow=%v,%v)",
				tc.nA, tc.nB, iters, e.Output(), n, e.Leaders(), dec, val)
		}
		want := 0
		if tc.nA > tc.nB {
			want = n
		}
		// Keep iterating: the decided slow box must pin the output.
		e.RunIteration(colour)
		e.RunIteration(colour)
		if got := e.Output(); got != want {
			t.Errorf("nA=%d nB=%d: output %d, want %d after extra iterations", tc.nA, tc.nB, got, want)
		}
	}
}

func TestExactModPredicate(t *testing.T) {
	const n = 200
	pred := Mod{Coef: []int{1}, M: 3, R: 1}
	for _, nA := range []int{30, 31, 32} {
		colour := func(i int) int {
			if i < nA {
				return 0
			}
			return -1
		}
		e := NewExact(pred, n, colour, 19)
		iters, ok := e.RunUntilStable(colour, []int64{int64(nA)}, 4000)
		if !ok {
			t.Fatalf("nA=%d: not stable after %d iterations", nA, iters)
		}
		want := 0
		if pred.Eval([]int64{int64(nA)}) {
			want = n
		}
		if got := e.Output(); got != want {
			t.Errorf("nA=%d: output %d, want %d", nA, got, want)
		}
	}
}

// TestExactFastPath verifies the w.h.p. speed claim shape: with the slow
// box still undecided, the output is already correct within a handful of
// iterations once a unique leader exists.
func TestExactFastPath(t *testing.T) {
	const n = 2048
	colour := func(i int) int {
		switch {
		case i < 700:
			return 0
		case i < 1200:
			return 1
		}
		return -1
	}
	e := NewExact(MajorityPredicate(), n, colour, 23)
	budget := 4 * int(math.Log2(n))
	for i := 0; i < budget; i++ {
		e.RunIteration(colour)
		if e.Leaders() == 1 && e.Output() == n {
			decided, _ := e.SlowDecided()
			if decided {
				t.Skip("slow box decided before the fast path could be observed")
			}
			return // fast path delivered the answer before the slow box
		}
	}
	t.Errorf("fast path did not deliver within %d iterations: leaders=%d out=%d",
		budget, e.Leaders(), e.Output())
}

func TestSlowBoxRulesValidate(t *testing.T) {
	sp := bitmask.NewSpace()
	box := NewSlowBox(sp, "S", Threshold{Coef: []int{2, -1}, C: 3})
	if err := box.Rules().Validate(); err != nil {
		t.Errorf("threshold slow box: %v", err)
	}
	sp2 := bitmask.NewSpace()
	box2 := NewSlowBox(sp2, "S", Mod{Coef: []int{1, 2}, M: 5, R: 2})
	if err := box2.Rules().Validate(); err != nil {
		t.Errorf("mod slow box: %v", err)
	}
	sp3 := bitmask.NewSpace()
	fb := NewFastBox(sp3, "F", MajorityPredicate())
	if err := fb.CancelRules().Validate(); err != nil {
		t.Errorf("fast cancel: %v", err)
	}
	if err := fb.DupRules().Validate(); err != nil {
		t.Errorf("fast dup: %v", err)
	}
}
