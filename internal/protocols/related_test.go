// Package protocols_test exercises the related-work protocols through the
// real expt.Driver (an external test package: internal/expt imports
// internal/protocols, so these tests cannot live inside package protocols).
package protocols_test

import (
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/expt"
	. "popkit/internal/protocols"
)

// driveCD runs one CDMajority replica and reports (converged, aWon, rounds).
func driveCD(t *testing.T, n int, nA, nB int64, seed uint64) (bool, bool, float64) {
	t.Helper()
	m := NewCDMajority(n)
	if err := m.Rules().Validate(); err != nil {
		t.Fatalf("CDMajority ruleset invalid: %v", err)
	}
	drv := expt.NewDriver(engine.CompileProtocol(m.Rules()), m.InitCounts(nA, nB), engine.NewRNG(seed), expt.RunnerHints{})
	tokA := drv.Track("TokA", bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)))
	tokB := drv.Track("TokB", bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)))
	out := drv.Track("Out", bitmask.Is(m.Out))
	rounds, ok := drv.RunUntil(func() bool {
		if tokB.Count() == 0 && out.Count() == int64(n) {
			return true // A verdict
		}
		return tokA.Count() == 0 && out.Count() == 0 // B verdict
	}, 2e6)
	return ok, tokB.Count() == 0 && out.Count() == int64(n), rounds
}

// drivePR is driveCD for PRMajority.
func drivePR(t *testing.T, n int, nA, nB int64, seed uint64) (bool, bool, float64) {
	t.Helper()
	m := NewPRMajority(n)
	if err := m.Rules().Validate(); err != nil {
		t.Fatalf("PRMajority ruleset invalid: %v", err)
	}
	drv := expt.NewDriver(engine.CompileProtocol(m.Rules()), m.InitCounts(nA, nB), engine.NewRNG(seed), expt.RunnerHints{})
	tokA := drv.Track("TokA", bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)))
	tokB := drv.Track("TokB", bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)))
	out := drv.Track("Out", bitmask.Is(m.Out))
	rounds, ok := drv.RunUntil(func() bool {
		if tokB.Count() == 0 && out.Count() == int64(n) {
			return true
		}
		return tokA.Count() == 0 && out.Count() == 0
	}, 2e6)
	return ok, tokB.Count() == 0 && out.Count() == int64(n), rounds
}

func TestCDMajorityExactAtGapOne(t *testing.T) {
	// |A−B| = 1 is the adversarial margin: any protocol that is merely
	// approximately correct fails here with constant probability. The
	// conserved weighted sum makes CDMajority exact — every seed must
	// produce the true majority, in both orientations.
	n := 601
	for seed := uint64(1); seed <= 12; seed++ {
		ok, aWon, _ := driveCD(t, n, 301, 300, seed)
		if !ok {
			t.Fatalf("seed %d: A-majority run did not converge", seed)
		}
		if !aWon {
			t.Fatalf("seed %d: A had majority 301:300 but B won", seed)
		}
		ok, aWon, _ = driveCD(t, n, 300, 301, seed)
		if !ok {
			t.Fatalf("seed %d: B-majority run did not converge", seed)
		}
		if aWon {
			t.Fatalf("seed %d: B had majority 301:300 but A won", seed)
		}
	}
}

func TestPRMajorityExactAtGapOne(t *testing.T) {
	n := 601
	for seed := uint64(1); seed <= 12; seed++ {
		ok, aWon, _ := drivePR(t, n, 301, 300, seed)
		if !ok {
			t.Fatalf("seed %d: A-majority run did not converge", seed)
		}
		if !aWon {
			t.Fatalf("seed %d: A had majority 301:300 but B won", seed)
		}
		ok, aWon, _ = drivePR(t, n, 300, 301, seed)
		if !ok {
			t.Fatalf("seed %d: B-majority run did not converge", seed)
		}
		if aWon {
			t.Fatalf("seed %d: B had majority 301:300 but A won", seed)
		}
	}
}

func TestMajorityCountedKernels(t *testing.T) {
	// Both majority protocols are flat rulesets with O(log n) species, so
	// above the dense crossover they must run (and converge correctly) on
	// the batch kernel too.
	n := 3001
	ok, aWon, _ := driveCD(t, n, 1501, 1500, 42)
	if !ok || !aWon {
		t.Fatalf("CDMajority on batch kernel: converged=%v aWon=%v", ok, aWon)
	}
	ok, aWon, _ = drivePR(t, n, 1500, 1501, 42)
	if !ok || aWon {
		t.Fatalf("PRMajority on batch kernel: converged=%v aWon=%v", ok, aWon)
	}
}

func TestGS18LeaderElectsUniqueLeader(t *testing.T) {
	n := 512
	for seed := uint64(1); seed <= 3; seed++ {
		g := NewGS18Leader(n)
		if err := g.Rules().Validate(); err != nil {
			t.Fatalf("GS18Leader ruleset invalid: %v", err)
		}
		rng := engine.NewRNG(seed)
		counts := g.InitCounts(n, rng)
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != int64(n) {
			t.Fatalf("InitCounts placed %d agents, want %d", total, n)
		}
		drv := expt.NewDriver(engine.CompileProtocol(g.Rules()), counts, rng, expt.RunnerHints{StateRich: true})
		if drv.Kind != expt.RunnerDense {
			t.Fatalf("GS18Leader must pin the dense runner, got %v", drv.Kind)
		}
		tl := drv.Track("L", bitmask.Is(g.L))
		rounds, ok := drv.RunUntil(func() bool { return tl.Count() == 1 }, 5e4)
		if !ok {
			t.Fatalf("seed %d: no unique leader after %.0f rounds (candidates=%d)", seed, rounds, tl.Count())
		}
		t.Logf("seed %d: unique leader at %.0f rounds (%.1f per log2n cycle)", seed, rounds, rounds/9)
	}
}

func TestGS18LeaderSublinear(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence-scaling check skipped in -short")
	}
	// The headline claim: convergence in polylog rounds, flat in n (a
	// 20-seed sweep measured means 2.7k/2.8k/3.8k at n=512/2048/8192). A
	// 10^4-round budget at n=2048 covers the tie-at-max-rank tail (worst
	// observed 9.3k) while staying far under linear-time scaling.
	n := 2048
	g := NewGS18Leader(n)
	rng := engine.NewRNG(7)
	drv := expt.NewDriver(engine.CompileProtocol(g.Rules()), g.InitCounts(n, rng), rng, expt.RunnerHints{StateRich: true})
	tl := drv.Track("L", bitmask.Is(g.L))
	rounds, ok := drv.RunUntil(func() bool { return tl.Count() == 1 }, 1e4)
	if !ok {
		t.Fatalf("no unique leader within 1e4 rounds (candidates=%d)", tl.Count())
	}
	t.Logf("n=%d: unique leader at %.0f rounds (2n baseline: %d)", n, rounds, 2*n)
}

func TestGS18LeaderStable(t *testing.T) {
	// Electing a unique leader transiently is not enough: the kill rule must
	// never fire on the survivor (its own heads flips protect it) and repair
	// must not spuriously re-candidate agents while a leader exists and the
	// Alive epidemic is healthy. Sample the candidate count for 5000 rounds
	// past convergence. This is the regression test for two real bugs: junta
	// rank pruning firing on still-flipping agents (which could empty the
	// candidate set AND the junta, stalling the oscillator), and stale
	// epidemic bits framing a tails-flipping lone leader.
	n := 512
	for seed := uint64(1); seed <= 5; seed++ {
		g := NewGS18Leader(n)
		rng := engine.NewRNG(seed)
		drv := expt.NewDriver(engine.CompileProtocol(g.Rules()), g.InitCounts(n, rng), rng, expt.RunnerHints{StateRich: true})
		tl := drv.Track("L", bitmask.Is(g.L))
		if _, ok := drv.RunUntil(func() bool { return tl.Count() == 1 }, 5e4); !ok {
			t.Fatalf("seed %d: no convergence", seed)
		}
		for i := 0; i < 50; i++ {
			drv.RunUntil(func() bool { return false }, 100)
			if c := tl.Count(); c != 1 {
				t.Fatalf("seed %d: candidate count %d after +%d rounds", seed, c, (i+1)*100)
			}
		}
	}
}

func TestRelatedStates(t *testing.T) {
	cd := NewCDMajority(1024)
	// L = len(1024)+1 = 12 → 2(L+1)+2 = 28 token/blank states.
	if got := cd.States(); got != 28 {
		t.Fatalf("CDMajority(1024).States() = %d, want 28", got)
	}
	pr := NewPRMajority(1024)
	if got := pr.States(); got != 52 {
		t.Fatalf("PRMajority(1024).States() = %d, want 52", got)
	}
	g := NewGS18Leader(1024)
	if g.States() < 1<<20 {
		t.Fatalf("GS18Leader(1024).States() = %d, expected a state-rich space", g.States())
	}
	// The state-space floor: protocols must stay buildable at tiny n.
	for _, n := range []int{1, 2, 16} {
		if err := NewCDMajority(n).Rules().Validate(); err != nil {
			t.Fatalf("CDMajority(%d) invalid: %v", n, err)
		}
		if err := NewPRMajority(n).Rules().Validate(); err != nil {
			t.Fatalf("PRMajority(%d) invalid: %v", n, err)
		}
	}
}

func TestRunnerHintsPinDense(t *testing.T) {
	m := NewCDMajority(4096)
	counts := m.InitCounts(2049, 2047)
	kind, _ := expt.SelectRunnerReasonHints(m.Rules(), 4096, expt.RunnerHints{})
	if kind != expt.RunnerBatch {
		t.Fatalf("flat ruleset at n=4096 should select batch, got %v", kind)
	}
	kind, reason := expt.SelectRunnerReasonHints(m.Rules(), 4096, expt.RunnerHints{StateRich: true})
	if kind != expt.RunnerDense {
		t.Fatalf("StateRich hint must pin dense, got %v (%s)", kind, reason)
	}
	drv := expt.NewDriver(engine.CompileProtocol(m.Rules()), counts, engine.NewRNG(1), expt.RunnerHints{StateRich: true})
	if drv.Kind != expt.RunnerDense {
		t.Fatalf("NewDriver ignored the hint: got %v", drv.Kind)
	}
}
