package protocols_test

// Fuzz invariants for the related-work protocols: whatever population
// split, seed, and firing budget the fuzzer picks, the transition functions
// must conserve the agent count, keep every field within its declared
// range, and preserve each protocol's load-bearing algebraic invariant —
// the signed weighted opinion sum for the cancelling–doubling majorities
// (the exactness proof IS this conservation law), the token/output-bit
// binding behind their reachable-state counts, and the never-empty junta
// (X ≥ 1) behind GS18's oscillator. Rulesets must also survive Validate at
// every fuzzed size: within-group guard disjointness is what guarantees no
// rule can fire on a non-matching pair under the unordered-group scheduler.

import (
	"math"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	. "popkit/internal/protocols"
)

// weightedSum folds the signed token weights Σ ±2^(L−lvl) over a counted
// population. Levels are capped at L ≤ 40 and fuzz populations at < 2^12
// agents, so the sum fits int64 with room to spare.
func weightedSum(pop *engine.Counted, tok, opA bitmask.Var, lvl bitmask.Field, maxLevel int) int64 {
	var w int64
	pop.ForEach(func(s bitmask.State, k int64) {
		if !tok.Get(s) {
			return
		}
		weight := int64(1) << uint(maxLevel-int(lvl.Get(s)))
		if opA.Get(s) {
			w += weight * k
		} else {
			w -= weight * k
		}
	})
	return w
}

// checkMajorityInvariants verifies conservation, range, and the
// token/output binding for a CD- or PR-shaped population.
func checkMajorityInvariants(t *testing.T, label string, pop *engine.Counted, tok, opA, out bitmask.Var, lvl bitmask.Field, maxLevel, wantN int64, wantW int64) {
	t.Helper()
	var n int64
	pop.ForEach(func(s bitmask.State, k int64) {
		if k < 0 {
			t.Fatalf("%s: species %v has negative count %d", label, s, k)
		}
		n += k
		if v := lvl.Get(s); v > uint64(maxLevel) {
			t.Fatalf("%s: level/phase %d out of range [0,%d]", label, v, maxLevel)
		}
		if tok.Get(s) && out.Get(s) != opA.Get(s) {
			t.Fatalf("%s: token with Out %v but sign OpA %v — the binding behind States() broke", label, out.Get(s), opA.Get(s))
		}
	})
	if n != wantN {
		t.Fatalf("%s: population not conserved: %d, want %d", label, n, wantN)
	}
	if w := weightedSum(pop, tok, opA, lvl, int(maxLevel)); w != wantW {
		t.Fatalf("%s: weighted opinion sum %d, want %d — exactness is lost", label, w, wantW)
	}
}

func FuzzRelatedInvariants(f *testing.F) {
	f.Add(uint8(0), uint16(5), uint16(4), uint64(1), uint16(200))
	f.Add(uint8(1), uint16(301), uint16(300), uint64(42), uint16(400))
	f.Add(uint8(2), uint16(64), uint16(0), uint64(7), uint16(300))
	f.Add(uint8(0), uint16(2), uint16(2), uint64(99), uint16(50))
	f.Add(uint8(1), uint16(1), uint16(1000), uint64(314), uint16(389))
	f.Add(uint8(2), uint16(250), uint16(9), uint64(1802), uint16(128))
	f.Fuzz(func(t *testing.T, pick uint8, ka, kb uint16, seed uint64, steps uint16) {
		budget := uint64(steps % 512)
		switch pick % 3 {
		case 0, 1:
			nA, nB := int64(ka%2048), int64(kb%2048)
			n := nA + nB
			if n < 2 {
				t.Skip("population too small")
			}
			var tok, opA, out bitmask.Var
			var lvl bitmask.Field
			var maxLevel int
			var pop *engine.Counted
			var br *engine.CountedRunner
			if pick%3 == 0 {
				m := NewCDMajority(int(n))
				if err := m.Rules().Validate(); err != nil {
					t.Fatalf("CDMajority(%d) ruleset invalid: %v", n, err)
				}
				tok, opA, out, lvl, maxLevel = m.Tok, m.OpA, m.Out, m.Lvl, m.MaxLevel
				pop = engine.NewCounted(m.InitCounts(nA, nB))
				br = engine.NewCountedRunner(engine.CompileProtocol(m.Rules()), pop, engine.NewRNG(seed), math.Inf(1))
			} else {
				m := NewPRMajority(int(n))
				if err := m.Rules().Validate(); err != nil {
					t.Fatalf("PRMajority(%d) ruleset invalid: %v", n, err)
				}
				tok, opA, out, lvl, maxLevel = m.Tok, m.OpA, m.Out, m.Ph, m.MaxPhase
				pop = engine.NewCounted(m.InitCounts(nA, nB))
				br = engine.NewCountedRunner(engine.CompileProtocol(m.Rules()), pop, engine.NewRNG(seed), math.Inf(1))
			}
			wantW := (nA - nB) * (int64(1) << uint(maxLevel))
			checkMajorityInvariants(t, "init", pop, tok, opA, out, lvl, int64(maxLevel), n, wantW)
			br.RunBatch(budget, 0)
			checkMajorityInvariants(t, "after batch", pop, tok, opA, out, lvl, int64(maxLevel), n, wantW)
		default:
			n := int(ka%300) + 4
			g := NewGS18Leader(n)
			if err := g.Rules().Validate(); err != nil {
				t.Fatalf("GS18Leader(%d) ruleset invalid: %v", n, err)
			}
			rng := engine.NewRNG(seed)
			pop := engine.NewCounted(g.InitCounts(n, rng))
			br := engine.NewCountedRunner(engine.CompileProtocol(g.Rules()), pop, rng, math.Inf(1))
			// Keep the budget small: the batch kernel's cost grows with the
			// species count, which grows with firings on this state-rich
			// protocol.
			br.RunBatch(budget%256, 0)
			var total, inJunta int64
			pop.ForEach(func(s bitmask.State, k int64) {
				if k < 0 {
					t.Fatalf("gs18: species %v has negative count %d", s, k)
				}
				total += k
				if g.X.Get(s) {
					inJunta += k
				}
				if r := g.Junta.Rank.Get(s); r > uint64(g.Junta.MaxLevel) {
					t.Fatalf("gs18: rank %d out of range [0,%d]", r, g.Junta.MaxLevel)
				}
				if m := g.Junta.Max.Get(s); m > uint64(g.Junta.MaxLevel) {
					t.Fatalf("gs18: max-rank %d out of range [0,%d]", m, g.Junta.MaxLevel)
				}
				if c := g.Clock.Counter.Get(s); c >= 12 {
					t.Fatalf("gs18: clock counter %d out of range [0,12)", c)
				}
			})
			if total != int64(n) {
				t.Fatalf("gs18: population not conserved: %d, want %d", total, n)
			}
			if inJunta < 1 {
				t.Fatalf("gs18: junta emptied (X = 0) — the oscillator has no control set")
			}
		}
	})
}
