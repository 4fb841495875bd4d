package engine

import (
	"bytes"
	"math"
	"math/bits"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/rules"
)

// epidemicProtocol builds the one-way epidemic (I)+(·) → (I)+(I) on a fresh
// space; it is the canonical O(log n)-round process.
func epidemicProtocol() (*Protocol, *bitmask.Space, bitmask.Var) {
	sp := bitmask.NewSpace()
	i := sp.Bool("I")
	rs := rules.NewRuleset(sp)
	rs.Add(bitmask.Is(i), bitmask.True(), bitmask.Is(i), bitmask.Is(i))
	return CompileProtocol(rs), sp, i
}

func TestRunnerEpidemicCompletes(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 2000
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(1))
	tr := r.Track("I", bitmask.Is(infected))
	if tr.Count() != 1 {
		t.Fatalf("initial infected = %d", tr.Count())
	}
	rounds, ok := r.RunUntil(func(*Runner) bool { return tr.Count() == n }, 1, 500)
	if !ok {
		t.Fatalf("epidemic did not complete in 500 rounds (reached %d)", tr.Count())
	}
	// The one-way epidemic takes Θ(log n) rounds; allow a generous window.
	if rounds < math.Log(n)/2 || rounds > 30*math.Log(n) {
		t.Errorf("epidemic rounds = %.1f, expected Θ(ln n) ≈ %.1f", rounds, math.Log(n))
	}
}

func TestTrackerMatchesScan(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 500
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k%10 == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(2))
	tr := r.Track("I", bitmask.Is(infected))
	g := bitmask.Compile(bitmask.Is(infected))
	for step := 0; step < 2000; step++ {
		r.Step()
		if step%200 == 0 {
			if scan := int64(pop.Count(g)); scan != tr.Count() {
				t.Fatalf("step %d: tracker %d != scan %d", step, tr.Count(), scan)
			}
		}
	}
}

func TestMatchingRoundEpidemic(t *testing.T) {
	p, _, infected := epidemicProtocol()
	const n = 1024
	pop := NewDenseInit(n, func(k int) bitmask.State {
		var s bitmask.State
		if k == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(3))
	tr := r.Track("I", bitmask.Is(infected))
	for round := 0; round < 400 && tr.Count() < n; round++ {
		r.MatchingRound()
	}
	if tr.Count() != n {
		t.Fatalf("matching-scheduler epidemic incomplete: %d/%d", tr.Count(), n)
	}
	// Under a matching scheduler, infections at most double per round, so
	// at least log2(n) rounds must have elapsed.
	if r.Rounds() < math.Log2(n) {
		t.Errorf("epidemic finished in %.1f rounds, impossible under matchings (< log2 n = %.1f)",
			r.Rounds(), math.Log2(n))
	}
}

func TestMatchingRoundOddPopulation(t *testing.T) {
	p, _, infected := epidemicProtocol()
	pop := NewDenseInit(7, func(k int) bitmask.State {
		var s bitmask.State
		if k < 3 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(4))
	r.MatchingRound() // must not panic with an unpaired agent
	if r.Interactions != 7 {
		t.Errorf("Interactions = %d, want 7 (one round)", r.Interactions)
	}
}

func TestRunnerCountsInteractionsIncludingMisses(t *testing.T) {
	p, _, _ := epidemicProtocol()
	// Nobody infected: the rule never matches, but steps still count.
	pop := NewDense(10)
	r := NewRunner(p, pop, NewRNG(5))
	r.RunRounds(3)
	if r.Interactions != 30 {
		t.Errorf("Interactions = %d, want 30", r.Interactions)
	}
	if r.Rounds() != 3 {
		t.Errorf("Rounds = %v, want 3", r.Rounds())
	}
}

func TestApplyAllAndResync(t *testing.T) {
	p, sp, infected := epidemicProtocol()
	pop := NewDense(100)
	r := NewRunner(p, pop, NewRNG(6))
	tr := r.Track("I", bitmask.Is(infected))
	n := pop.ApplyAll(bitmask.TrueGuard(), bitmask.SetVar(infected))
	if n != 100 {
		t.Fatalf("ApplyAll touched %d agents", n)
	}
	if tr.Count() != 0 {
		t.Fatal("tracker updated without resync — test premise broken")
	}
	r.ResyncTrackers()
	if tr.Count() != 100 {
		t.Errorf("after resync tracker = %d, want 100", tr.Count())
	}
	_ = sp
}

func TestRunUntilTimeout(t *testing.T) {
	p, _, infected := epidemicProtocol()
	pop := NewDense(50) // nobody infected; epidemic can never start
	r := NewRunner(p, pop, NewRNG(7))
	tr := r.Track("I", bitmask.Is(infected))
	rounds, ok := r.RunUntil(func(*Runner) bool { return tr.Count() > 0 }, 1, 20)
	if ok {
		t.Error("condition reported met in a dead population")
	}
	if rounds < 20 {
		t.Errorf("stopped after %.1f rounds, want ≥ 20", rounds)
	}
}

func TestReachableStates(t *testing.T) {
	sp := bitmask.NewSpace()
	l := sp.Bool("L")
	rs := rules.NewRuleset(sp)
	// Classic coalescing leader election: (L)+(L) → (L)+(¬L).
	rs.Add(bitmask.Is(l), bitmask.Is(l), bitmask.Is(l), bitmask.IsNot(l))
	p := CompileProtocol(rs)
	leader := l.Set(bitmask.State{}, true)
	states, ok := p.ReachableStates([]bitmask.State{leader}, 100)
	if !ok {
		t.Fatal("closure exceeded limit")
	}
	if len(states) != 2 {
		t.Errorf("reachable states = %d, want 2 (L and follower)", len(states))
	}
	// The limit is respected.
	if _, ok := p.ReachableStates([]bitmask.State{leader}, 1); ok {
		t.Error("limit of 1 not enforced")
	}
}

func TestNewDensePanicsOnTinyPopulation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(1) did not panic")
		}
	}()
	NewDense(1)
}

func TestDenseHistogram(t *testing.T) {
	_, _, infected := epidemicProtocol()
	pop := NewDenseInit(10, func(k int) bitmask.State {
		var s bitmask.State
		if k < 4 {
			s = infected.Set(s, true)
		}
		return s
	})
	h := pop.Histogram()
	if len(h) != 2 {
		t.Fatalf("histogram has %d states, want 2", len(h))
	}
	inf := infected.Set(bitmask.State{}, true)
	if h[inf] != 4 || h[bitmask.State{}] != 6 {
		t.Errorf("histogram = %v", h)
	}
}

// unstep inverts one xoshiro256++ state transition: advance(unstep(s), 1)
// is s.
func unstep(n [4]uint64) [4]uint64 {
	u := bits.RotateLeft64(n[3], -45) // s3 ^ s1
	s0 := n[0] ^ u
	a := n[1] ^ s0 // s1 ^ s2
	b := n[2] ^ s0 // s2 ^ s1<<17
	c := a ^ b     // s1 ^ s1<<17
	s1 := c ^ c<<17 ^ c<<34 ^ c<<51
	return [4]uint64{s0, s1, a ^ s1, u ^ s1}
}

// advance returns s after k xoshiro steps.
func advance(s [4]uint64, k int) [4]uint64 {
	for ; k > 0; k-- {
		_, s[0], s[1], s[2], s[3] = xoshiro(s[0], s[1], s[2], s[3])
	}
	return s
}

// TestStepRedrawsLikeIntn pins the step loop's Lemire redraws, which no
// golden digest reaches: at n ≤ 10⁷ a step draw is redrawn with
// probability below n/2⁶⁴. A state {0, a, b, 0} makes xoshiro256++ output
// 0, which Intn(m) rejects whenever m is not a power of two; unstepping it
// puts that 0 on the first, second or third draw of a Step. Step must
// leave the population and the RNG exactly as Intn(n), Intn(n−1) with the
// skip past i, then StepPair(i, j) leave a twin runner; at n = 2 the
// partner draw Intn(1) is always 0, so the skip alone must pick the other
// agent. Every pair fires in every one of the three groups and marks both
// agents with its group, so the snapshot shows which agents and which
// group were drawn.
func TestStepRedrawsLikeIntn(t *testing.T) {
	sp := bitmask.NewSpace()
	marks := sp.Bools("X0", "Y0", "X1", "Y1", "X2", "Y2")
	id := sp.Field("ID", 1023)
	rs := rules.NewRuleset(sp)
	for g := 0; g < 3; g++ {
		rs.Add(bitmask.True(), bitmask.True(), bitmask.Is(marks[2*g]), bitmask.Is(marks[2*g+1]))
	}
	p := CompileProtocol(rs)
	if p.NumSlots() != 3 {
		t.Fatalf("slots = %d, want 3", p.NumSlots())
	}
	for _, n := range []int{2, 300, 301, 800} {
		for draw := 0; draw < 3; draw++ {
			zero := [4]uint64{0, 0x9e3779b97f4a7c15 + uint64(n), 0xbf58476d1ce4e5b9 ^ uint64(draw), 0}
			if out, _, _, _, _ := xoshiro(zero[0], zero[1], zero[2], zero[3]); out != 0 {
				t.Fatalf("output of %x = %d, want 0", zero, out)
			}
			start := zero
			for k := 0; k < draw; k++ {
				start = unstep(start)
			}
			if got := advance(start, draw); got != zero {
				t.Fatalf("unstep does not invert xoshiro: %x, want %x", got, zero)
			}
			bound := []int{n, n - 1, 3}[draw]
			outputs := 3
			if bound&(bound-1) != 0 {
				outputs++ // the zero draw is rejected and redrawn
			}

			init := func(k int) bitmask.State { return id.Set(bitmask.State{}, uint64(k)) }
			r := NewRunner(p, NewDenseInit(n, init), &RNG{s: start})
			if !r.Step() {
				t.Fatalf("n=%d draw=%d: Step did not fire", n, draw)
			}
			twin := NewRunner(p, NewDenseInit(n, init), &RNG{s: start})
			i := twin.RNG.Intn(n)
			j := twin.RNG.Intn(n - 1)
			if j >= i {
				j++
			}
			twin.StepPair(i, j)

			if r.RNG.s != twin.RNG.s {
				t.Errorf("n=%d draw=%d: RNG state %x, twin %x", n, draw, r.RNG.s, twin.RNG.s)
			}
			if want := advance(start, outputs); r.RNG.s != want {
				t.Errorf("n=%d draw=%d: Step consumed other than %d outputs", n, draw, outputs)
			}
			var got, want bytes.Buffer
			if _, err := r.Pop.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Pop.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("n=%d draw=%d: population differs from Intn, Intn, StepPair (i=%d, j=%d)", n, draw, i, j)
			}
		}
	}
}
