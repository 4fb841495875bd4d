package engine

import (
	"bytes"
	"testing"

	"popkit/internal/bitmask"
)

// TestDenseCompactionIsInvisible churns one agent through thousands of
// distinct states, which makes the species table compact (renumbering
// every species id) under a live runner, and checks that the runner then
// follows exactly the trajectory of a fresh population holding the same
// states with the same RNG state: species ids never leak into results.
func TestDenseCompactionIsInvisible(t *testing.T) {
	r, tr, _ := goldenRunner(120, 4)
	r.RunRounds(3)

	pop := r.Pop
	keep := pop.Agent(0)
	for k := uint64(0); k < 3*minTableLimit; k++ {
		pop.SetAgent(0, bitmask.State{Hi: 1 << 40, Lo: k})
	}
	pop.SetAgent(0, keep)
	if pop.gen == 0 {
		t.Fatal("churn did not compact the species table")
	}
	if len(pop.states) > 2*minTableLimit {
		t.Fatalf("species table holds %d entries after compaction", len(pop.states))
	}

	p2, _, _, _ := goldenProtocol()
	rng := *r.RNG
	fresh := NewDenseInit(pop.N(), pop.Agent)
	r2 := NewRunner(p2, fresh, &rng)
	a, _ := p2.Set.Space.LookupVar("A")
	k, _ := p2.Set.Space.LookupVar("K")
	tr2 := r2.Track("AK", bitmask.And(bitmask.Is(a), bitmask.Is(k)))
	if tr.Count() != tr2.Count() {
		t.Fatalf("tracked counts differ before stepping: %d vs %d", tr.Count(), tr2.Count())
	}

	for step := 0; step < 6; step++ {
		r.RunRounds(2)
		r2.RunRounds(2)
		var b1, b2 bytes.Buffer
		if _, err := pop.WriteTo(&b1); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.WriteTo(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) || tr.Count() != tr2.Count() {
			t.Fatalf("round %d: compacted population diverged from a fresh copy (tracked %d vs %d)",
				2*(step+1), tr.Count(), tr2.Count())
		}
	}
}

// TestDenseBulkWriters checks SetAll and Remap against agent-by-agent
// writes: the same states, the per-agent key visited once per agent in
// index order, and fn evaluated once per (species, key) pair.
func TestDenseBulkWriters(t *testing.T) {
	sp := bitmask.NewSpace()
	f := sp.Field("F", 7)
	c := sp.Bool("C")
	const n = 300
	d := NewDenseInit(n, func(i int) bitmask.State { return f.Set(bitmask.State{}, uint64(i/50)) })
	want := make([]bitmask.State, n)
	for i := range want {
		want[i] = f.Set(bitmask.State{}, uint64(i/50))
	}

	var order []int
	calls := 0
	d.Remap(2, func(i int) int {
		order = append(order, i)
		return i % 2
	}, func(s bitmask.State, k int) bitmask.State {
		calls++
		return c.Set(s, k == 1)
	})
	for i := range want {
		want[i] = c.Set(want[i], i%2 == 1)
	}
	if calls != 12 {
		t.Errorf("Remap evaluated fn %d times, want once per (species, key): 12", calls)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("key visited agent %d at position %d", got, i)
		}
	}

	d.SetAll(func(i int, s bitmask.State) bitmask.State { return f.Set(s, uint64(i%3)) })
	for i := range want {
		want[i] = f.Set(want[i], uint64(i%3))
	}
	for i := range want {
		if d.Agent(i) != want[i] {
			t.Fatalf("agent %d = %v, want %v", i, d.Agent(i), want[i])
		}
	}
	if got := d.Count(bitmask.Compile(bitmask.Is(c))); got != n/2 {
		t.Errorf("Count(C) = %d, want %d", got, n/2)
	}
}
