package popkit

import (
	"bytes"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	prog := LeaderElection()
	run, err := NewRun(prog, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	iters, ok := run.RunUntil(func(r *Run) bool { return r.CountVar("L") == 1 }, 200)
	if !ok {
		t.Fatalf("no unique leader after %d iterations", iters)
	}
	if run.Rounds <= 0 {
		t.Error("no parallel time charged")
	}
}

func TestFacadeParse(t *testing.T) {
	src := `
protocol Demo
var A = on output

thread Main uses A
  repeat:
    A := on
`
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Demo" {
		t.Errorf("name = %q", p.Name)
	}
	if _, err := ParseProgram("garbage"); err == nil {
		t.Error("garbage parsed")
	}
}

func TestFacadeCompile(t *testing.T) {
	c, err := CompileProgram(Majority(2), CompileOptions{Control: XTwoMeet})
	if err != nil {
		t.Fatal(err)
	}
	if c.Rules.Len() == 0 {
		t.Error("empty compiled ruleset")
	}
	if c.LMax != 2 || c.M%4 != 0 {
		t.Errorf("geometry: l_max=%d m=%d", c.LMax, c.M)
	}
}

func TestFacadeSemilinear(t *testing.T) {
	pred := Threshold{Coef: []int{1, -1}, C: 1}
	colour := func(i int) int {
		switch {
		case i < 120:
			return 0
		case i < 200:
			return 1
		}
		return -1
	}
	e := NewSemilinearExact(pred, 300, colour, 3)
	if _, ok := e.RunUntilStable(colour, []int64{120, 80}, 500); !ok {
		t.Fatal("semilinear did not stabilize")
	}
	if e.Output() != 300 {
		t.Errorf("output = %d, want 300", e.Output())
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) < 15 {
		t.Errorf("only %d experiments registered", len(Experiments()))
	}
	if _, ok := LookupExperiment("E1"); !ok {
		t.Error("E1 missing")
	}
}

func TestFacadeCombinators(t *testing.T) {
	pred := AndPredicate{Parts: []Predicate{
		Threshold{Coef: []int{1}, C: 3},
		NotPredicate{Inner: Threshold{Coef: []int{1}, C: 7}},
	}}
	if !pred.Eval([]int64{5}) || pred.Eval([]int64{8}) || pred.Eval([]int64{2}) {
		t.Error("combined predicate oracle wrong")
	}
	_ = OrPredicate{Parts: []Predicate{pred}}
}

// TestFacadeCombinedPredicateExact: a boolean combination runs on
// NewSemilinearExact (through its slow path) and stabilizes to the
// oracle's value on both sides of each atom's threshold.
func TestFacadeCombinedPredicateExact(t *testing.T) {
	pred := AndPredicate{Parts: []Predicate{
		Threshold{Coef: []int{1}, C: 3},
		NotPredicate{Inner: Threshold{Coef: []int{1}, C: 7}},
	}}
	for _, k := range []int{2, 5, 9} {
		colour := func(i int) int {
			if i < k {
				return 0
			}
			return -1
		}
		counts := []int64{int64(k)}
		e := NewSemilinearExact(pred, 200, colour, 1)
		iters, ok := e.RunUntilStable(colour, counts, 400)
		if !ok {
			t.Fatalf("k=%d: not stable after %d iterations", k, iters)
		}
		if want := pred.Eval(counts); (e.Output() == 200) != want {
			t.Errorf("k=%d: output %d of 200, oracle %v", k, e.Output(), want)
		}
	}
}

func TestFacadeSnapshotRoundTrip(t *testing.T) {
	c, err := CompileProgram(LeaderElection(), CompileOptions{Control: XPreReduced})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1)
	pop := c.NewPopulation(64, rng)
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDensePopulation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 64 {
		t.Errorf("restored population size %d", back.N())
	}
}
