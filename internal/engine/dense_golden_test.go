package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
	"popkit/internal/rules"
)

// Golden trajectories of the dense runner. Each digest is the SHA-256 of a
// fixed-seed trajectory's bytes — population snapshots (Dense.WriteTo),
// interaction counts, tracked counts and per-rule firing tallies — so any
// change to the RNG draw order, the rule resolution or the snapshot format
// shows up here, however the kernel is implemented internally.

// goldenProtocol mixes every dispatch shape the dense runner resolves: a
// weighted singleton group, plain singleton groups, a hash-indexed group
// over a field counter, and an ordered (first-match) group.
func goldenProtocol() (*Protocol, bitmask.Var, bitmask.Var, bitmask.Field) {
	sp := bitmask.NewSpace()
	vs := sp.Bools("A", "B", "K")
	a, b, k := vs[0], vs[1], vs[2]
	c := sp.Field("C", 7)
	rs := rules.NewRuleset(sp)
	rs.AddWeighted(2,
		bitmask.And(bitmask.Is(a), bitmask.IsNot(k)), bitmask.And(bitmask.IsNot(a), bitmask.IsNot(b)),
		bitmask.And(bitmask.Is(a), bitmask.Is(k)), bitmask.And(bitmask.Is(a), bitmask.Is(k)))
	rs.Add(bitmask.Is(a), bitmask.Is(b), bitmask.IsNot(a), bitmask.IsNot(b))
	rs.Add(bitmask.And(bitmask.Is(b), bitmask.IsNot(k)), bitmask.And(bitmask.IsNot(a), bitmask.IsNot(b)),
		bitmask.And(bitmask.Is(b), bitmask.Is(k)), bitmask.And(bitmask.Is(b), bitmask.Is(k)))
	counter := make([]rules.Rule, 7)
	for v := range counter {
		counter[v] = rules.MustNew(bitmask.FieldIs(c, uint64(v)), bitmask.Is(k),
			bitmask.FieldIs(c, uint64(v+1)), bitmask.IsNot(k))
	}
	rs.AddGroup("count", 3, counter...)
	rs.AddOrderedGroup("reset", 1,
		rules.MustNew(bitmask.FieldIs(c, 7), bitmask.True(), bitmask.FieldIs(c, 0), bitmask.True()),
		rules.MustNew(bitmask.Is(k), bitmask.Is(k), bitmask.IsNot(k), bitmask.True()))
	return CompileProtocol(rs), a, b, c
}

// goldenPopulation seeds n agents: a third A, a third B, the rest blank,
// with counter values spread over the field.
func goldenPopulation(n int, a, b bitmask.Var, c bitmask.Field) *Dense {
	return NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		switch i % 3 {
		case 0:
			s = a.Set(s, true)
		case 1:
			s = b.Set(s, true)
		}
		return c.Set(s, uint64(i%5))
	})
}

// goldenDigest accumulates a trajectory's bytes.
type goldenDigest struct {
	buf bytes.Buffer
}

func (g *goldenDigest) snapshot(t *testing.T, pop *Dense) {
	t.Helper()
	if _, err := pop.WriteTo(&g.buf); err != nil {
		t.Fatal(err)
	}
}

func (g *goldenDigest) u64(vs ...uint64) {
	for _, v := range vs {
		_ = binary.Write(&g.buf, binary.LittleEndian, v)
	}
}

func (g *goldenDigest) runner(t *testing.T, r *Runner, tr *Tracker, st *obs.RuleStats) {
	t.Helper()
	g.snapshot(t, r.Pop)
	g.u64(r.Interactions, uint64(tr.Count()))
	g.u64(st.Fired()...)
}

func (g *goldenDigest) check(t *testing.T, want string) {
	t.Helper()
	sum := sha256.Sum256(g.buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("trajectory digest %s, want %s (%d bytes)", got, want, g.buf.Len())
	}
}

func goldenRunner(n int, seed uint64) (*Runner, *Tracker, *obs.RuleStats) {
	p, a, b, c := goldenProtocol()
	r := NewRunner(p, goldenPopulation(n, a, b, c), NewRNG(seed))
	r.Stats = obs.NewRuleStats(p.NumRules())
	k, _ := p.Set.Space.LookupVar("K")
	tr := r.Track("AK", bitmask.And(bitmask.Is(a), bitmask.Is(k)))
	return r, tr, r.Stats
}

func TestDenseGoldenWriteTo(t *testing.T) {
	_, a, b, c := goldenProtocol()
	var g goldenDigest
	g.snapshot(t, goldenPopulation(257, a, b, c))
	g.check(t, "01e334c4550a564c679ae6b34a35c94e3f6e3da56fb8a497095998dc6538413e")
}

func TestDenseGoldenSequential(t *testing.T) {
	r, tr, st := goldenRunner(301, 11)
	var g goldenDigest
	for k := 0; k < 12; k++ {
		r.RunRounds(0.75)
		g.runner(t, r, tr, st)
	}
	for k := 0; k < 50; k++ {
		g.u64(boolU64(r.Step()))
	}
	g.runner(t, r, tr, st)
	g.check(t, "af1ff544df6c27b25a2efed00c1a68f4735a5e70c11efecb6e4c98d37ed14e81")
}

func TestDenseGoldenMatchingRound(t *testing.T) {
	r, tr, st := goldenRunner(300, 5)
	var g goldenDigest
	for k := 0; k < 8; k++ {
		r.MatchingRound()
		g.runner(t, r, tr, st)
	}
	g.check(t, "d870a0d5d8c369f256756d766be25ac2be8ed83f429bdbfb66d5426bbd9f22d9")
}

func TestDenseGoldenStepPair(t *testing.T) {
	const n = 64
	r, tr, st := goldenRunner(n, 9)
	var g goldenDigest
	for k := 0; k < 4000; k++ {
		i := (k * 7) % n
		j := (k*13 + 5) % n
		if i == j {
			j = (j + 1) % n
		}
		g.u64(boolU64(r.StepPair(i, j)))
		if k%500 == 499 {
			g.runner(t, r, tr, st)
		}
	}
	g.check(t, "00fcebe4f770f9dc04067f0ebdb897bfc2538af53eb15ef02beaf79aba566f9e")
}

func TestDenseGoldenRunIsolated(t *testing.T) {
	r, tr, st := goldenRunner(200, 21)
	live := make([]int, 0, 40)
	for i := 0; i < 200; i += 5 {
		live = append(live, i)
	}
	var g goldenDigest
	for k := 0; k < 6; k++ {
		r.RunIsolated(live, 500)
		g.runner(t, r, tr, st)
	}
	g.check(t, "dac079e31fb941788d371f97b3cbe90ba3617c8bd054550943ce068721d6c221")
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
