package expt

import (
	"reflect"
	"strings"
	"testing"
)

func TestCanonicalSpecStableEncoding(t *testing.T) {
	s := JobSpec{Protocol: "leader", N: 4096, Seed: 7, Replicas: 8}
	got := string(CanonicalSpec(s))
	want := `{"v":2,"protocol":"leader","n":4096,"seed":7,"replicas":8,"gap":0,"colours":0,"max_iters":0,"max_rounds":0}`
	if got != want {
		t.Fatalf("canonical encoding drifted:\n got %s\nwant %s", got, want)
	}
}

// The golden hash pins the store key format: a change here invalidates every
// existing store directory, which is exactly when StoreSchemaVersion must be
// bumped (turning the invalidation into a clean re-keying).
func TestSpecHashGolden(t *testing.T) {
	s := JobSpec{Protocol: "leader", N: 4096, Seed: 7, Replicas: 8}
	const want = "3e80f437f9ecec22189a8c0b912ffb1deafd04b127def14d0ad4c4b5d01a9e42"
	got := SpecHash(s)
	if len(got) != 64 || strings.Trim(got, "0123456789abcdef") != "" {
		t.Fatalf("SpecHash %q is not lowercase hex sha256", got)
	}
	if got != want {
		t.Fatalf("SpecHash drifted:\n got %s\nwant %s", got, want)
	}
}

func TestSpecHashExcludesJobIDAndStart(t *testing.T) {
	base := JobSpec{Protocol: "leader", N: 1024, Seed: 3, Replicas: 4}
	withID := base
	withID.JobID = "job-1"
	if SpecHash(base) != SpecHash(withID) {
		t.Fatal("job_id changed the content hash; journaled and plain runs must share cache entries")
	}
	// Start is excluded from the encoding, but a windowed spec must never be
	// committed or looked up — HashableSpec is the gate.
	shard := base
	shard.Start = 2
	if shard.Cacheable() {
		t.Fatal("windowed spec reported cacheable")
	}
	if err := HashableSpec(shard); err == nil {
		t.Fatal("HashableSpec accepted a windowed spec")
	}
	if err := HashableSpec(withID); err == nil {
		t.Fatal("HashableSpec accepted a job_id spec")
	}
	if err := HashableSpec(base); err != nil {
		t.Fatalf("HashableSpec rejected a plain spec: %v", err)
	}
}

func TestSpecHashSensitiveToEveryCanonicalField(t *testing.T) {
	base := JobSpec{Protocol: "leader", N: 1024, Seed: 3, Replicas: 4}
	h := SpecHash(base)
	variants := map[string]JobSpec{}
	v := base
	v.Protocol = "majority"
	variants["protocol"] = v
	v = base
	v.N = 1025
	variants["n"] = v
	v = base
	v.Seed = 4
	variants["seed"] = v
	v = base
	v.Replicas = 5
	variants["replicas"] = v
	v = base
	v.Gap = 1
	variants["gap"] = v
	v = base
	v.Colours = 3
	variants["colours"] = v
	v = base
	v.MaxIters = 100
	variants["max_iters"] = v
	v = base
	v.MaxRounds = 2.5
	variants["max_rounds"] = v
	for field, spec := range variants {
		if SpecHash(spec) == h {
			t.Errorf("changing %s did not change the hash", field)
		}
	}
}

// Reflection guard: every JobSpec field must be either canonically encoded
// or deliberately excluded. Adding a field without deciding which — and
// bumping StoreSchemaVersion if it changes result meaning — fails here.
func TestCanonicalSpecCoversEveryJobSpecField(t *testing.T) {
	encoded := map[string]bool{
		"Protocol": true, "N": true, "Seed": true, "Replicas": true,
		"Gap": true, "Colours": true, "MaxIters": true, "MaxRounds": true,
	}
	excluded := map[string]bool{
		"JobID": true, // journal identity, never in replica records
		"Start": true, // shard window; the store holds whole jobs only
	}
	typ := reflect.TypeOf(JobSpec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !encoded[name] && !excluded[name] {
			t.Errorf("JobSpec field %s is neither canonically encoded nor in the exclusion list; "+
				"decide its store semantics in CanonicalSpec and update this guard "+
				"(bump StoreSchemaVersion if it changes result bytes)", name)
		}
	}
	if typ.NumField() != len(encoded)+len(excluded) {
		t.Errorf("JobSpec has %d fields but the guard lists %d; remove stale entries",
			typ.NumField(), len(encoded)+len(excluded))
	}
}
