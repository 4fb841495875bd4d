package expt

import (
	"testing"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
)

// TestDriverDenseLayoutDeterministic guards the dense runner's initial
// layout: the agent array must be a pure function of the counts map, not of
// Go's randomized map iteration order. (n below denseCrossover forces the
// dense runner; two same-seed drivers must walk identical trajectories.)
func TestDriverDenseLayoutDeterministic(t *testing.T) {
	em := baseline.NewExactMajority4()
	emA := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
	emB := em.Strong.Set(bitmask.State{}, true)
	proto := engine.CompileProtocol(em.Rules())

	run := func() (float64, uint64) {
		drv := NewDriver(proto,
			map[bitmask.State]int64{emA: 151, emB: 149}, engine.NewRNG(42), RunnerHints{})
		if drv.Kind != RunnerDense {
			t.Fatalf("expected the dense runner at n=300, got %v", drv.Kind)
		}
		ta := drv.Track("A", bitmask.Is(em.IsA))
		rounds, ok := drv.RunUntil(func() bool {
			a := ta.Count()
			return a == 0 || a == 300
		}, 1e6)
		if !ok {
			t.Fatal("run did not converge")
		}
		return rounds, drv.Interactions()
	}

	r0, i0 := run()
	for trial := 0; trial < 8; trial++ {
		if r, i := run(); r != r0 || i != i0 {
			t.Fatalf("same-seed trajectory diverged: (%v, %d) vs (%v, %d)", r, i, r0, i0)
		}
	}
}
