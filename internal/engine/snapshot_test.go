package engine

import (
	"bytes"
	"strings"
	"testing"

	"popkit/internal/bitmask"
)

func TestDenseSnapshotRoundTrip(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	f := sp.Field("F", 15)
	rng := NewRNG(4)
	pop := NewDenseInit(500, func(i int) bitmask.State {
		var s bitmask.State
		if rng.Bool() {
			s = a.Set(s, true)
		}
		return f.Set(s, uint64(rng.Intn(16)))
	})
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != pop.N() {
		t.Fatalf("size %d != %d", back.N(), pop.N())
	}
	for i := 0; i < pop.N(); i++ {
		if back.Agent(i) != pop.Agent(i) {
			t.Fatalf("agent %d differs after round trip", i)
		}
	}
}

// TestDenseSnapshotResume: a run checkpointed mid-flight and resumed with
// the same RNG state produces a valid continuation (the epidemic still
// completes).
func TestDenseSnapshotResume(t *testing.T) {
	p, _, infected := epidemicProtocol()
	pop := NewDenseInit(300, func(i int) bitmask.State {
		var s bitmask.State
		if i == 0 {
			s = infected.Set(s, true)
		}
		return s
	})
	r := NewRunner(p, pop, NewRNG(8))
	r.RunRounds(3)
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadDense(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(p, restored, NewRNG(99))
	tr := r2.Track("I", bitmask.Is(infected))
	if _, ok := r2.RunUntil(func(*Runner) bool { return tr.Count() == int64(restored.N()) }, 1, 500); !ok {
		t.Fatal("resumed epidemic did not complete")
	}
}

func TestCountedSnapshotRoundTrip(t *testing.T) {
	sp := bitmask.NewSpace()
	a := sp.Bool("A")
	sA := a.Set(bitmask.State{}, true)
	pop := NewCounted(map[bitmask.State]int64{sA: 123456789, {}: 876543211})
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCounted(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N64() != pop.N64() {
		t.Fatalf("size %d != %d", back.N64(), pop.N64())
	}
	if back.CountState(sA) != 123456789 {
		t.Errorf("species count = %d", back.CountState(sA))
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ReadDense(strings.NewReader("not a snapshot at all")); err == nil {
		t.Error("garbage accepted as dense snapshot")
	}
	if _, err := ReadCounted(strings.NewReader("POPK\x01\x01")); err == nil {
		t.Error("dense snapshot accepted as counted")
	}
	// Truncated payload.
	sp := bitmask.NewSpace()
	sp.Bool("A")
	pop := NewDense(10)
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadDense(bytes.NewReader(cut)); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestSnapshotKindMismatch(t *testing.T) {
	pop := NewDense(10)
	var buf bytes.Buffer
	if _, err := pop.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCounted(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("kind mismatch accepted")
	}
}
