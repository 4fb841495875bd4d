package engine

import (
	"bytes"
	"testing"

	"popkit/internal/bitmask"
)

// TestResyncTrackersAfterMutation covers the out-of-band mutation contract:
// SetAgent and ApplyAll bypass tracker maintenance, ResyncTrackers restores
// consistency, and incremental tracking stays exact afterwards.
func TestResyncTrackersAfterMutation(t *testing.T) {
	sp := bitmask.NewSpace()
	p, a, b := twoRuleProtocol(sp)
	const n = 200
	pop := NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		if i < 10 {
			s = a.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(99))
	trA := r.Track("A", bitmask.Is(a))
	trB := r.Track("B", bitmask.Is(b))
	trAB := r.Track("A&!B", bitmask.And(bitmask.Is(a), bitmask.IsNot(b)))
	if trA.Count() != 10 || trB.Count() != 0 {
		t.Fatalf("initial counts A=%d B=%d", trA.Count(), trB.Count())
	}

	check := func(stage string) {
		t.Helper()
		for _, tc := range []struct {
			tr *Tracker
			f  bitmask.Formula
		}{
			{trA, bitmask.Is(a)},
			{trB, bitmask.Is(b)},
			{trAB, bitmask.And(bitmask.Is(a), bitmask.IsNot(b))},
		} {
			want := int64(pop.Count(bitmask.Compile(tc.f)))
			if got := tc.tr.Count(); got != want {
				t.Fatalf("%s: tracker %s = %d, population holds %d", stage, tc.tr.Name, got, want)
			}
		}
	}

	r.RunRounds(5)
	check("after scheduled rounds")

	// Out-of-band single-agent writes: trackers are stale by contract…
	for i := 0; i < 50; i++ {
		s := pop.Agent(i)
		pop.SetAgent(i, b.Set(s, true))
	}
	// …and resync restores exactness.
	r.ResyncTrackers()
	check("after SetAgent + resync")

	// Bulk mutation via ApplyAll, then resync.
	g := bitmask.Compile(bitmask.Is(b))
	u, err := bitmask.CompileUpdate(bitmask.Is(a))
	if err != nil {
		t.Fatal(err)
	}
	if updated := pop.ApplyAll(g, u); updated == 0 {
		t.Fatal("ApplyAll touched nothing; the mutation scenario is vacuous")
	}
	r.ResyncTrackers()
	check("after ApplyAll + resync")

	// Incremental maintenance must remain exact after the resyncs.
	r.RunRounds(5)
	check("after further scheduled rounds")
}

// TestSnapshotRestoreTrackers covers checkpoint/resume: a Dense population
// round-trips through its binary snapshot, a fresh runner over the restored
// population sees identical tracker counts, and both copies evolve
// identically under the same RNG stream.
func TestSnapshotRestoreTrackers(t *testing.T) {
	sp := bitmask.NewSpace()
	p, a, bvar := twoRuleProtocol(sp)
	const n = 300
	pop := NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		if i%7 == 0 {
			s = a.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(1234))
	r.Track("A", bitmask.Is(a))
	r.RunRounds(10)

	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != pop.N() {
		t.Fatalf("restored n=%d, want %d", restored.N(), pop.N())
	}
	for i := 0; i < n; i++ {
		if restored.Agent(i) != pop.Agent(i) {
			t.Fatalf("agent %d state drifted through snapshot: %v vs %v", i, restored.Agent(i), pop.Agent(i))
		}
	}

	// A fresh runner over the restored population must agree with the
	// original's trackers once tracked (Track counts at registration).
	r2 := NewRunner(p, restored, NewRNG(777))
	trA2 := r2.Track("A", bitmask.Is(a))
	trB2 := r2.Track("B", bitmask.Is(bvar))
	if want := int64(pop.Count(bitmask.Compile(bitmask.Is(a)))); trA2.Count() != want {
		t.Fatalf("restored tracker A=%d, want %d", trA2.Count(), want)
	}

	// Drive original and restored with identical fresh streams: the
	// populations are equal, so the trajectories must stay equal.
	r1b := NewRunner(p, pop, NewRNG(777))
	trB1 := r1b.Track("B", bitmask.Is(bvar))
	r1b.RunRounds(8)
	r2.RunRounds(8)
	if trB1.Count() != trB2.Count() {
		t.Fatalf("post-restore trajectories diverge: B=%d vs %d", trB1.Count(), trB2.Count())
	}
	h1, h2 := pop.Histogram(), restored.Histogram()
	for s, c := range h1 {
		if h2[s] != c {
			t.Fatalf("histograms diverge at %v: %d vs %d", s, c, h2[s])
		}
	}
}
