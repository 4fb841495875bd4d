package qos

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
)

func spec(protocol string, n, replicas int, maxRounds float64) expt.JobSpec {
	return expt.JobSpec{Protocol: protocol, N: n, Replicas: replicas, MaxRounds: maxRounds}
}

func TestPredictClasses(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	cases := []struct {
		name string
		spec expt.JobSpec
		kind string
		want Class
		tier string
	}{
		// Tiny DV12 exact majority: far under a second even with Θ(n·log n)
		// rounds, because the batch kernel leaps quiescence at small n.
		{"interactive", spec("exactmajority", 2000, 2, 1e9), "counted", ClassInteractive, "batch"},
		// n=1e5 lands in the seconds band.
		{"batch", spec("exactmajority", 100_000, 1, 1e9), "counted", ClassBatch, "batch"},
		// Huge-n runs on the aggregate kernel are whales.
		{"whale", spec("exactmajority", 10_000_000, 1, 1e9), "counted", ClassWhale, "aggregate"},
		// Framework protocols always price on the dense tier.
		{"framework", spec("leader", 128, 1, 0), "framework", ClassInteractive, "dense"},
	}
	for _, tc := range cases {
		p := m.Predict(tc.spec, tc.kind)
		if p.Class != tc.want {
			t.Errorf("%s: class = %v (total %v), want %v", tc.name, p.Class, p.Total, tc.want)
		}
		if p.Tier != tc.tier {
			t.Errorf("%s: tier = %q, want %q", tc.name, p.Tier, tc.tier)
		}
		if p.PerReplica <= 0 || p.Total < p.PerReplica {
			t.Errorf("%s: nonsense durations per=%v total=%v", tc.name, p.PerReplica, p.Total)
		}
	}
}

func TestPredictScalesWithReplicas(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	one := m.Predict(spec("exactmajority", 100_000, 1, 1e9), "counted")
	ten := m.Predict(spec("exactmajority", 100_000, 10, 1e9), "counted")
	if ten.Total != 10*one.Total {
		t.Fatalf("10 replicas predicted %v, want 10 × %v", ten.Total, one.Total)
	}
	// A shard window [start, replicas) prices only its own width.
	sh := spec("exactmajority", 100_000, 10, 1e9)
	sh.Start = 8
	if got := m.Predict(sh, "counted"); got.Total != 2*one.Total {
		t.Fatalf("2-replica window predicted %v, want 2 × %v", got.Total, one.Total)
	}
}

func TestPredictRespectsRoundBudget(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	free := m.Predict(spec("exactmajority", 1_000_000, 1, 1e9), "counted")
	capped := m.Predict(spec("exactmajority", 1_000_000, 1, 10), "counted")
	if capped.Interactions >= free.Interactions {
		t.Fatalf("max_rounds=10 predicted %.3g interactions, uncapped %.3g", capped.Interactions, free.Interactions)
	}
	if capped.Interactions != 10*1_000_000 {
		t.Fatalf("capped interactions = %.3g, want 1e7", capped.Interactions)
	}
}

func TestObserveEWMACorrection(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	s := spec("exactmajority", 100_000, 1, 1e9)
	before := m.Predict(s, "counted")
	// The hardware is consistently 10× slower than the raw grid says:
	// actual = 10 × (prediction / applied correction).
	for i := 0; i < 20; i++ {
		p := m.Predict(s, "counted")
		raw := float64(p.PerReplica) / p.Correction
		m.Observe(p, time.Duration(10*raw))
	}
	after := m.Predict(s, "counted")
	if ratio := float64(after.PerReplica) / float64(before.PerReplica); ratio < 5 || ratio > 20 {
		t.Fatalf("after 20 × 10×-slow observations, prediction moved %.2f×, want ≈10×", ratio)
	}
	corr := m.Corrections()["batch"]
	if corr < 5 || corr > 20 {
		t.Fatalf("batch correction = %v, want ≈10", corr)
	}
	// Observations of one tier must not touch another.
	if _, ok := m.Corrections()["aggregate"]; ok {
		t.Fatal("aggregate correction set without aggregate observations")
	}
}

func TestObserveClampsOutliers(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	s := spec("exactmajority", 100_000, 1, 1e9)
	p := m.Predict(s, "counted")
	m.Observe(p, p.PerReplica*1e6) // absurd single outlier
	if c := m.Corrections()["batch"]; c > 100 {
		t.Fatalf("correction %v exceeded clamp", c)
	}
	m.Observe(p, 0) // ignored
	m.Observe(Prediction{}, time.Second)
}

func TestGridFileOverridesDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	body := `{"rows":[{"runner":"batch","n":1000000,"ns_per_interaction":1000}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(ModelOptions{GridPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if ns := m.nsPerInteraction("batch", 1e6); ns != 1000 {
		t.Fatalf("ns = %v, want 1000 from the file", ns)
	}
	// A tier the file lacks falls back to "counted", itself absent → 10.
	if ns := m.nsPerInteraction("dense", 1e6); ns != 10 {
		t.Fatalf("fallback ns = %v, want 10", ns)
	}

	if _, err := NewModel(ModelOptions{GridPath: filepath.Join(dir, "missing.json")}); err != nil {
		t.Fatalf("missing grid file must fall back, got %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := NewModel(ModelOptions{GridPath: bad}); err == nil {
		t.Fatal("unparseable grid file must error")
	}
	if _, err := NewModel(ModelOptions{InteractiveMax: time.Minute, WhaleMin: time.Second}); err == nil {
		t.Fatal("WhaleMin below InteractiveMax must error")
	}
}

func TestNsPerInteractionInterpolates(t *testing.T) {
	m := MustNewModel(ModelOptions{})
	lo := m.nsPerInteraction("aggregate", 1e4)
	mid := m.nsPerInteraction("aggregate", 1e7)
	hi := m.nsPerInteraction("aggregate", 1e8)
	last := m.nsPerInteraction("aggregate", 1e9)
	if !(mid < lo && mid > hi) {
		t.Fatalf("interpolation not monotone on the aggregate decline: lo=%v mid=%v hi=%v", lo, mid, hi)
	}
	// Outside the measured range clamps to the endpoints.
	if got := m.nsPerInteraction("aggregate", 1); got != lo {
		t.Fatalf("below-range ns = %v, want clamp %v", got, lo)
	}
	if got := m.nsPerInteraction("aggregate", 1e12); got != last {
		t.Fatalf("above-range ns = %v, want clamp %v", got, last)
	}
}

func TestDeriveDeadline(t *testing.T) {
	floor, cap := 10*time.Second, 15*time.Minute
	// Tiny prediction: the floor holds (over-granting direction).
	if d := DeriveDeadline(time.Millisecond, floor, cap); d != floor {
		t.Fatalf("tiny job deadline = %v, want floor %v", d, floor)
	}
	// Mid prediction: slack × prediction.
	if d := DeriveDeadline(10*time.Second, floor, cap); d != 80*time.Second {
		t.Fatalf("mid job deadline = %v, want 80s", d)
	}
	// Huge prediction: the cap holds (the operator override wins).
	if d := DeriveDeadline(24*time.Hour, floor, cap); d != cap {
		t.Fatalf("whale deadline = %v, want cap %v", d, cap)
	}
	// Uncapped.
	if d := DeriveDeadline(24*time.Hour, floor, 0); d != 8*24*time.Hour {
		t.Fatalf("uncapped deadline = %v, want 8d", d)
	}
	// Overflow saturates instead of wrapping negative.
	if d := DeriveDeadline(time.Duration(math.MaxInt64/2), floor, 0); d <= 0 {
		t.Fatalf("overflow deadline = %v", d)
	}
}

func TestCleanTenant(t *testing.T) {
	if got, ok := CleanTenant(""); !ok || got != DefaultTenant {
		t.Fatalf("empty → %q/%v", got, ok)
	}
	if got, ok := CleanTenant("team-a.prod_1"); !ok || got != "team-a.prod_1" {
		t.Fatalf("valid name mangled: %q/%v", got, ok)
	}
	for _, bad := range []string{"has space", "semi;colon", "ünïcode", string(make([]byte, 65))} {
		if _, ok := CleanTenant(bad); ok {
			t.Fatalf("accepted invalid tenant %q", bad)
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range Classes() {
		if c.String() == "unknown" {
			t.Fatalf("class %d stringifies to unknown", c)
		}
	}
	if Class(99).String() != "unknown" {
		t.Fatal("out-of-range class must stringify to unknown")
	}
}

// TestPredictPinned pins the model's decisions for every registry entry at
// four sizes under the default budgets Normalize applies (max_iters 2000
// for framework entries, each counted entry's own max_rounds): the tier,
// the expected interactions, the per-replica cost and the class, recorded
// from the model before the round priors moved onto the catalogue entries.
func TestPredictPinned(t *testing.T) {
	budget := map[string]float64{
		"approxmajority": 1e6, "exactmajority": 1e9, "coalescence": 1e9,
		"gsexactmajority": 1e6, "aagmajority": 1e6, "gs18leader": 1e5,
	}
	m := MustNewModel(ModelOptions{})
	cases := []struct {
		protocol     string
		n            int
		tier         string
		interactions float64
		perReplica   time.Duration
		class        Class
	}{
		{"aagmajority", 256, "dense", 78717.42180035812, 2155283, ClassInteractive},
		{"aagmajority", 4096, "batch", 2.833827184812892e+06, 8388, ClassInteractive},
		{"aagmajority", 1000000, "batch", 1.908683319772223e+09, 12062878580, ClassBatch},
		{"aagmajority", 10000000, "aggregate", 2.5979300741344154e+10, 38787365717, ClassWhale},
		{"approxmajority", 256, "dense", 11356.523406294144, 310941, ClassInteractive},
		{"approxmajority", 4096, "batch", 272556.56175105943, 1000, ClassInteractive},
		{"approxmajority", 1000000, "batch", 1.1052408446371418e+08, 698512213, ClassInteractive},
		{"approxmajority", 10000000, "aggregate", 1.2894476520766656e+09, 1925158731, ClassBatch},
		{"coalescence", 256, "dense", 131072, 3588751, ClassInteractive},
		{"coalescence", 4096, "batch", 3.3554432e+07, 99321, ClassInteractive},
		{"coalescence", 1000000, "batch", 2e+12, 12640000000000, ClassWhale},
		{"coalescence", 10000000, "aggregate", 2e+14, 298602076349110, ClassWhale},
		{"exactmajority", 256, "dense", 363408.7490014126, 9950131, ClassInteractive},
		{"exactmajority", 4096, "batch", 1.3954895961654243e+08, 413064, ClassInteractive},
		{"exactmajority", 1000000, "batch", 1.3815510557964273e+13, 87314026726334, ClassWhale},
		{"exactmajority", 10000000, "aggregate", 1.611809565095832e+15, 2406448414084861, ClassWhale},
		{"gs18leader", 256, "dense", 551021.9526025067, 15086981, ClassInteractive},
		{"gs18leader", 4096, "dense", 1.9836790293690246e+07, 543131318, ClassInteractive},
		{"gs18leader", 1000000, "dense", 1.3360783238405561e+10, 847875304309, ClassWhale},
		{"gs18leader", 10000000, "dense", 1.818551051894091e+11, 11540524975319, ClassWhale},
		{"gsexactmajority", 256, "dense", 78717.42180035812, 2155283, ClassInteractive},
		{"gsexactmajority", 4096, "batch", 2.833827184812892e+06, 8388, ClassInteractive},
		{"gsexactmajority", 1000000, "batch", 1.908683319772223e+09, 12062878580, ClassBatch},
		{"gsexactmajority", 10000000, "aggregate", 2.5979300741344154e+10, 38787365717, ClassWhale},
		{"leader", 256, "dense", 40213.57021888243, 1101047, ClassInteractive},
		{"leader", 4096, "dense", 1.3739605278797674e+06, 37619039, ClassInteractive},
		{"leader", 1000000, "dense", 8.858890937268336e+08, 56218521887, ClassWhale},
		{"leader", 10000000, "dense", 1.19416674035164e+10, 757818213427, ClassWhale},
		{"leaderexact", 256, "dense", 40213.57021888243, 1101047, ClassInteractive},
		{"leaderexact", 4096, "dense", 1.3739605278797674e+06, 37619039, ClassInteractive},
		{"leaderexact", 1000000, "dense", 8.858890937268336e+08, 56218521887, ClassWhale},
		{"leaderexact", 10000000, "dense", 1.19416674035164e+10, 757818213427, ClassWhale},
		{"majority", 256, "dense", 40213.57021888243, 1101047, ClassInteractive},
		{"majority", 4096, "dense", 1.3739605278797674e+06, 37619039, ClassInteractive},
		{"majority", 1000000, "dense", 8.858890937268336e+08, 56218521887, ClassWhale},
		{"majority", 10000000, "dense", 1.19416674035164e+10, 757818213427, ClassWhale},
		{"majorityexact", 256, "dense", 40213.57021888243, 1101047, ClassInteractive},
		{"majorityexact", 4096, "dense", 1.3739605278797674e+06, 37619039, ClassInteractive},
		{"majorityexact", 1000000, "dense", 8.858890937268336e+08, 56218521887, ClassWhale},
		{"majorityexact", 10000000, "dense", 1.19416674035164e+10, 757818213427, ClassWhale},
		{"plurality", 256, "dense", 40213.57021888243, 1101047, ClassInteractive},
		{"plurality", 4096, "dense", 1.3739605278797674e+06, 37619039, ClassInteractive},
		{"plurality", 1000000, "dense", 8.858890937268336e+08, 56218521887, ClassWhale},
		{"plurality", 10000000, "dense", 1.19416674035164e+10, 757818213427, ClassWhale},
	}
	rows := map[string]int{}
	for _, tc := range cases {
		rows[tc.protocol]++
		s := expt.JobSpec{Protocol: tc.protocol, N: tc.n, Replicas: 1, MaxRounds: budget[tc.protocol]}
		kind := "counted"
		if s.MaxRounds == 0 {
			s.MaxIters, kind = 2000, "framework"
		}
		p := m.Predict(s, kind)
		if p.Tier != tc.tier || p.Interactions != tc.interactions || p.PerReplica != tc.perReplica || p.Class != tc.class {
			t.Errorf("%s n=%d: tier %q, interactions %v, per replica %d, class %v; want %q, %v, %d, %v",
				tc.protocol, tc.n, p.Tier, p.Interactions, int64(p.PerReplica), p.Class,
				tc.tier, tc.interactions, int64(tc.perReplica), tc.class)
		}
	}
	for _, name := range catalog.NewRegistry().Names() {
		if rows[name] != 4 {
			t.Errorf("%s has %d pinned rows, want one per size", name, rows[name])
		}
	}
}
