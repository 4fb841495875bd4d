package serve

import (
	"bytes"
	"context"
	"testing"

	"popkit/internal/expt"
)

// TestBuiltinsRunAndConverge: every registered protocol must normalize a
// tiny spec and produce a converged record.
func TestBuiltinsRunAndConverge(t *testing.T) {
	reg := NewRegistry()
	for _, p := range reg.List() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			spec := expt.JobSpec{Protocol: p.Name, N: 200, Seed: 11, Replicas: 2}
			if p.Name == "majority" || p.Name == "majorityexact" || p.Name == "approxmajority" || p.Name == "exactmajority" {
				spec.Gap = 2
			}
			proto, err := reg.Normalize(&spec, 1_000_000, 64)
			if err != nil {
				t.Fatalf("normalize: %v", err)
			}
			var recs []expt.ReplicaRecord
			if err := proto.Run(context.Background(), spec, RunOptions{Workers: 2}, func(r expt.ReplicaRecord) {
				recs = append(recs, r)
			}); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(recs) != 2 {
				t.Fatalf("got %d records, want 2", len(recs))
			}
			for i, r := range recs {
				if r.Replica != i {
					t.Errorf("record %d out of order: %+v", i, r)
				}
				if r.Err != "" {
					t.Errorf("replica %d failed: %s", i, r.Err)
				}
				if !r.Converged {
					t.Errorf("replica %d did not converge: %+v", i, r)
				}
				if r.Seed != expt.ReplicaSeed(spec.Seed, i) {
					t.Errorf("replica %d seed not split from root: %+v", i, r)
				}
				if len(r.Counts) == 0 {
					t.Errorf("replica %d carries no counts: %+v", i, r)
				}
			}
		})
	}
}

// TestNormalizeRejections checks every rejection Normalize makes, common
// and per protocol, by its message, including which check wins when a spec
// breaks two; and the defaults it fills into a minimal spec of each entry.
// The messages and defaults were recorded before the registry moved into
// the protocol catalogue.
func TestNormalizeRejections(t *testing.T) {
	reg := NewRegistry()
	bad := []struct {
		spec expt.JobSpec
		msg  string
	}{
		{expt.JobSpec{Protocol: "nosuch", N: 100}, "unknown protocol \"nosuch\" (known: [aagmajority approxmajority coalescence exactmajority gs18leader gsexactmajority leader leaderexact majority majorityexact plurality])"},
		{expt.JobSpec{Protocol: "", N: 100}, "protocol is required"},
		{expt.JobSpec{Protocol: "leader", N: 1}, "n must be ≥ 2 (got 1)"},
		{expt.JobSpec{Protocol: "leader", N: 1073741825}, "n must be ≤ 1073741824 (got 1073741825)"},
		{expt.JobSpec{Protocol: "leader", N: 100, Replicas: 65}, "replicas must be in [1, 64] (got 65)"},
		{expt.JobSpec{Protocol: "leader", N: 100, Gap: 3}, "gap does not apply to \"leader\""},
		{expt.JobSpec{Protocol: "leader", N: 100, Gap: 101}, "gap must be in [0, n] (got 101 with n=100)"},
		{expt.JobSpec{Protocol: "leader", N: 100, Colours: 3}, "colours does not apply to \"leader\""},
		{expt.JobSpec{Protocol: "leader", N: 100, MaxRounds: 10}, "max_rounds applies to counted protocols only; use max_iters for \"leader\""},
		{expt.JobSpec{Protocol: "leader", N: 100, Gap: 3, MaxRounds: 10}, "gap does not apply to \"leader\""},
		{expt.JobSpec{Protocol: "leaderexact", N: 100, Gap: 1}, "gap does not apply to \"leaderexact\""},
		{expt.JobSpec{Protocol: "leaderexact", N: 100, Colours: 2}, "colours does not apply to \"leaderexact\""},
		{expt.JobSpec{Protocol: "leaderexact", N: 100, MaxRounds: 1}, "max_rounds applies to counted protocols only; use max_iters for \"leaderexact\""},
		{expt.JobSpec{Protocol: "majority", N: 100, Colours: 2}, "colours does not apply to \"majority\""},
		{expt.JobSpec{Protocol: "majority", N: 100, MaxRounds: 5}, "max_rounds applies to counted protocols only; use max_iters for \"majority\""},
		{expt.JobSpec{Protocol: "majorityexact", N: 100, Colours: 2}, "colours does not apply to \"majorityexact\""},
		{expt.JobSpec{Protocol: "majorityexact", N: 100, MaxRounds: 5}, "max_rounds applies to counted protocols only; use max_iters for \"majorityexact\""},
		{expt.JobSpec{Protocol: "plurality", N: 100, Gap: 1}, "gap does not apply to \"plurality\""},
		{expt.JobSpec{Protocol: "plurality", N: 100, Colours: 1}, "colours must be ≥ 2 (got 1)"},
		{expt.JobSpec{Protocol: "plurality", N: 10, Colours: 4}, "n too small for 4 colours (need at least 20 agents)"},
		{expt.JobSpec{Protocol: "plurality", N: 11}, "n too small for 3 colours (need at least 12 agents)"},
		{expt.JobSpec{Protocol: "plurality", N: 100, MaxRounds: 1}, "max_rounds applies to counted protocols only; use max_iters for \"plurality\""},
		{expt.JobSpec{Protocol: "plurality", N: 100, Colours: 1, MaxRounds: 1}, "colours must be ≥ 2 (got 1)"},
		{expt.JobSpec{Protocol: "approxmajority", N: 100, Colours: 2}, "colours does not apply to \"approxmajority\""},
		{expt.JobSpec{Protocol: "approxmajority", N: 100, MaxIters: 5}, "max_iters applies to framework protocols only; use max_rounds for \"approxmajority\""},
		{expt.JobSpec{Protocol: "exactmajority", N: 100, Colours: 2}, "colours does not apply to \"exactmajority\""},
		{expt.JobSpec{Protocol: "exactmajority", N: 100, MaxIters: 5}, "max_iters applies to framework protocols only; use max_rounds for \"exactmajority\""},
		{expt.JobSpec{Protocol: "coalescence", N: 100, Gap: 1}, "gap does not apply to \"coalescence\""},
		{expt.JobSpec{Protocol: "coalescence", N: 100, Colours: 2}, "colours does not apply to \"coalescence\""},
		{expt.JobSpec{Protocol: "coalescence", N: 100, MaxIters: 3}, "max_iters applies to framework protocols only; use max_rounds for \"coalescence\""},
		{expt.JobSpec{Protocol: "gsexactmajority", N: 100, Colours: 2}, "colours does not apply to \"gsexactmajority\""},
		{expt.JobSpec{Protocol: "gsexactmajority", N: 100, MaxIters: 1}, "max_iters applies to framework protocols only; use max_rounds for \"gsexactmajority\""},
		{expt.JobSpec{Protocol: "gsexactmajority", N: 100, Colours: 2, MaxIters: 1}, "colours does not apply to \"gsexactmajority\""},
		{expt.JobSpec{Protocol: "aagmajority", N: 100, Colours: 2}, "colours does not apply to \"aagmajority\""},
		{expt.JobSpec{Protocol: "aagmajority", N: 100, MaxIters: 1}, "max_iters applies to framework protocols only; use max_rounds for \"aagmajority\""},
		{expt.JobSpec{Protocol: "gs18leader", N: 100, Gap: 1}, "gap does not apply to \"gs18leader\""},
		{expt.JobSpec{Protocol: "gs18leader", N: 100, Colours: 1}, "colours does not apply to \"gs18leader\""},
		{expt.JobSpec{Protocol: "gs18leader", N: 15}, "gs18leader needs n ≥ 16 (got 15): the junta construction degenerates below that"},
		{expt.JobSpec{Protocol: "gs18leader", N: 1048577}, "gs18leader caps n at 1048576 (got 1048577): the state-rich space pins the dense kernel, which holds every agent in memory"},
		{expt.JobSpec{Protocol: "gs18leader", N: 100, MaxIters: 2}, "max_iters applies to framework protocols only; use max_rounds for \"gs18leader\""},
		{expt.JobSpec{Protocol: "gs18leader", N: 15, MaxIters: 2}, "gs18leader needs n ≥ 16 (got 15): the junta construction degenerates below that"},
	}
	for _, tc := range bad {
		s := tc.spec
		_, err := reg.Normalize(&s, 1<<30, 64)
		if err == nil {
			t.Errorf("spec %+v unexpectedly accepted", tc.spec)
		} else if err.Error() != tc.msg {
			t.Errorf("spec %+v: %q, want %q", tc.spec, err, tc.msg)
		}
	}

	defaults := []struct {
		protocol     string
		gap, colours int
		maxIters     int
		maxRounds    float64
	}{
		{"aagmajority", 1, 0, 0, 1e6},
		{"approxmajority", 0, 0, 0, 1e6},
		{"coalescence", 0, 0, 0, 1e9},
		{"exactmajority", 0, 0, 0, 1e9},
		{"gs18leader", 0, 0, 0, 1e5},
		{"gsexactmajority", 1, 0, 0, 1e6},
		{"leader", 0, 0, 2000, 0},
		{"leaderexact", 0, 0, 2000, 0},
		{"majority", 0, 0, 2000, 0},
		{"majorityexact", 0, 0, 2000, 0},
		{"plurality", 0, 3, 2000, 0},
	}
	for _, d := range defaults {
		s := expt.JobSpec{Protocol: d.protocol, N: 100, Seed: 1}
		if _, err := reg.Normalize(&s, 1<<30, 64); err != nil {
			t.Errorf("%s: minimal spec rejected: %v", d.protocol, err)
			continue
		}
		if s.Gap != d.gap || s.Colours != d.colours || s.MaxIters != d.maxIters || s.MaxRounds != d.maxRounds || s.Replicas != 1 {
			t.Errorf("%s: defaults gap %d colours %d max_iters %d max_rounds %g replicas %d; want %d %d %d %g 1",
				d.protocol, s.Gap, s.Colours, s.MaxIters, s.MaxRounds, s.Replicas, d.gap, d.colours, d.maxIters, d.maxRounds)
		}
	}
}

// TestRunWorkerInvariance: the streamed NDJSON bytes must not depend on the
// fleet worker count.
func TestRunWorkerInvariance(t *testing.T) {
	reg := NewRegistry()
	render := func(workers int) []byte {
		spec := expt.JobSpec{Protocol: "leader", N: 300, Seed: 5, Replicas: 6}
		proto, err := reg.Normalize(&spec, 1_000_000, 64)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := proto.Run(context.Background(), spec, RunOptions{Workers: workers}, func(r expt.ReplicaRecord) {
			line, _ := r.MarshalLine()
			buf.Write(line)
		}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render(1)
	for _, workers := range []int{2, 4, 8} {
		if got := render(workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d changed the stream:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestCancelledRunAborts: a cancelled context must abort the replicas and
// surface the cancellation.
func TestCancelledRunAborts(t *testing.T) {
	reg := NewRegistry()
	spec := expt.JobSpec{Protocol: "exactmajority", N: 100000, Seed: 3, Replicas: 4, Gap: 1}
	proto, err := reg.Normalize(&spec, 1_000_000, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := proto.Run(ctx, spec, RunOptions{Workers: 2}, func(expt.ReplicaRecord) {}); err == nil {
		t.Fatal("cancelled run reported success")
	}
}

// TestRegisterDuplicate rejects name collisions.
func TestRegisterDuplicate(t *testing.T) {
	reg := NewRegistry()
	p, _ := reg.Lookup("leader")
	err := reg.Register(p)
	if err == nil {
		t.Fatal("duplicate registration accepted")
	}
}
