package catalog

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"popkit/internal/expt"
	"popkit/internal/fleet"
)

// smallSpec is a quick, convergent spec for an entry.
func smallSpec(name string) expt.JobSpec {
	spec := expt.JobSpec{Protocol: name, N: 200, Seed: 17, Replicas: 2}
	if name == "majority" || name == "majorityexact" || name == "approxmajority" || name == "exactmajority" {
		spec.Gap = 2
	}
	return spec
}

// noReplica is a replica body for entries that are registered but never run.
func noReplica(context.Context, expt.JobSpec, int, uint64) (expt.ReplicaRecord, error) {
	return expt.ReplicaRecord{}, nil
}

// TestReplicaTakesItsSeed: a replica body run with seed s reports s and
// computes exactly the record Run streams for the replica whose split seed
// is s. That is the contract popsim's summary mode relies on when it passes
// -seed unchanged.
func TestReplicaTakesItsSeed(t *testing.T) {
	reg := NewRegistry()
	for _, p := range reg.List() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			spec := smallSpec(p.Name)
			if _, err := reg.Normalize(&spec, 1<<20, 8); err != nil {
				t.Fatal(err)
			}
			var streamed []expt.ReplicaRecord
			if err := p.Run(context.Background(), spec, RunOptions{Workers: 2}, func(r expt.ReplicaRecord) {
				streamed = append(streamed, r)
			}); err != nil {
				t.Fatal(err)
			}
			for i, want := range streamed {
				got, err := p.Replica(context.Background(), spec, i, expt.ReplicaSeed(spec.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("replica %d: body %+v, Run streamed %+v", i, got, want)
				}
				if !want.Converged || want.Err != "" || len(want.Counts) == 0 {
					t.Errorf("replica %d: %+v", i, want)
				}
			}
			rec, err := p.Replica(context.Background(), spec, 0, 12345)
			if err != nil || rec.Seed != 12345 || rec.Replica != 0 {
				t.Errorf("seeded replica: %+v, %v", rec, err)
			}
		})
	}
}

// TestNormalizeDerivesChecksFromParams: every entry rejects a gap or
// colours it does not take and the budget of the other kind, and defaults
// the budget of its own kind; an entry with no Params takes none of them.
func TestNormalizeDerivesChecksFromParams(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(&Protocol{Name: "bare", Kind: "test", Replica: noReplica}); err != nil {
		t.Fatal(err)
	}
	for _, p := range reg.List() {
		set := map[string]func(*expt.JobSpec){
			"gap":        func(s *expt.JobSpec) { s.Gap = 1 },
			"colours":    func(s *expt.JobSpec) { s.Colours = 2 },
			"max_iters":  func(s *expt.JobSpec) { s.MaxIters = 5 },
			"max_rounds": func(s *expt.JobSpec) { s.MaxRounds = 5 },
		}
		for param, apply := range set {
			spec := expt.JobSpec{Protocol: p.Name, N: 100}
			apply(&spec)
			_, err := reg.Normalize(&spec, 1<<20, 8)
			if p.Takes(param) {
				if err != nil {
					t.Errorf("%s with %s: %v", p.Name, param, err)
				}
				continue
			}
			if err == nil || !strings.HasPrefix(err.Error(), param+" ") {
				t.Errorf("%s with %s: got %v, want a rejection naming it", p.Name, param, err)
			}
		}
		spec := expt.JobSpec{Protocol: p.Name, N: 100}
		if _, err := reg.Normalize(&spec, 1<<20, 8); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if (spec.MaxIters != 0) != p.Takes("max_iters") || (spec.MaxRounds != 0) != p.Takes("max_rounds") {
			t.Errorf("%s: budgets max_iters %d max_rounds %g for params %v", p.Name, spec.MaxIters, spec.MaxRounds, p.Params)
		}
	}
}

// TestPriorsAndLookup: Lookup serves the built-in entries, and exactly the
// counted ones carry a round prior, positive and growing with n.
func TestPriorsAndLookup(t *testing.T) {
	if _, ok := Lookup("nosuch"); ok {
		t.Fatal("Lookup found an unknown protocol")
	}
	for _, name := range NewRegistry().Names() {
		p, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed a built-in entry", name)
		}
		if (p.ExpectedRounds != nil) != (p.Kind == "counted") {
			t.Errorf("%s (%s): prior present = %v", name, p.Kind, p.ExpectedRounds != nil)
			continue
		}
		if p.ExpectedRounds != nil && !(0 < p.ExpectedRounds(1e3) && p.ExpectedRounds(1e3) < p.ExpectedRounds(1e6)) {
			t.Errorf("%s: prior %g at 1e3, %g at 1e6", name, p.ExpectedRounds(1e3), p.ExpectedRounds(1e6))
		}
	}
}

// TestRegisterRejects: a nameless or bodiless entry and a duplicate name.
func TestRegisterRejects(t *testing.T) {
	reg := NewRegistry()
	for _, p := range []*Protocol{{Name: "x"}, {Replica: noReplica}, {Name: "leader", Replica: noReplica}} {
		if err := reg.Register(p); err == nil {
			t.Errorf("registered %+v", p)
		}
	}
}

// TestCancelledReplica: both kinds of body stop on a cancelled context and
// return its error; a framework record comes back unconverged, as far as
// it got.
func TestCancelledReplica(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := NewRegistry()
	for _, name := range []string{"leader", "exactmajority"} {
		spec := smallSpec(name)
		p, err := reg.Normalize(&spec, 1<<20, 8)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := p.Replica(ctx, spec, 0, 1)
		if !errors.Is(err, context.Canceled) || rec.Converged {
			t.Errorf("%s: %+v, %v", name, rec, err)
		}
		if err := p.Run(ctx, spec, RunOptions{Workers: 1}, func(expt.ReplicaRecord) {}); err == nil {
			t.Errorf("%s: cancelled Run reported success", name)
		}
	}
}

// TestRecordOfClassifiesFailures: a failed replica becomes an error record
// with the failure's kind.
func TestRecordOfClassifiesFailures(t *testing.T) {
	spec := expt.JobSpec{Protocol: "leader", N: 10}
	cases := []struct {
		r    fleet.Result
		kind string
	}{
		{fleet.Result{Value: 3}, "error"},
		{fleet.Result{Err: &fleet.PanicError{Value: "boom", Stack: []byte("stack")}}, "panic"},
		{fleet.Result{Err: context.DeadlineExceeded}, "timeout"},
		{fleet.Result{Err: context.Canceled}, "cancelled"},
		{fleet.Result{Err: errors.New("bad")}, "error"},
	}
	for _, tc := range cases {
		rec := recordOf(spec, tc.r)
		if rec.ErrKind != tc.kind || rec.Err == "" || rec.Protocol != "leader" {
			t.Errorf("%+v: %+v, want kind %q", tc.r, rec, tc.kind)
		}
	}
	if rec := recordOf(spec, fleet.Result{Err: &fleet.PanicError{Value: "boom", Stack: []byte("stack")}}); rec.Stack != "stack" {
		t.Errorf("panic stack lost: %+v", rec)
	}
}

// TestSummary renders each framework program's outputs the way popsim
// prints them.
func TestSummary(t *testing.T) {
	cases := []struct {
		spec expt.JobSpec
		rec  expt.ReplicaRecord
		want string
	}{
		{expt.JobSpec{Protocol: "leaderexact", N: 100},
			expt.ReplicaRecord{Seed: 4, Iterations: 2, Rounds: 60, Converged: true, Counts: map[string]int64{"L": 1}},
			"protocol=LeaderElectionExact n=100 seed=4\niterations=2 rounds=60 (2.8 × ln²n) converged=true\nleaders=1\n"},
		{expt.JobSpec{Protocol: "majority", N: 100},
			expt.ReplicaRecord{Seed: 5, Iterations: 3, Rounds: 90, Counts: map[string]int64{"YA": 0}},
			"protocol=Majority n=100 seed=5\niterations=3 rounds=90 (4.2 × ln²n) converged=false\nYA=0 (on means A is the majority)\n"},
		{expt.JobSpec{Protocol: "plurality", N: 100, Colours: 2},
			expt.ReplicaRecord{Seed: 6, Iterations: 1, Rounds: 30, Converged: true, Counts: map[string]int64{"W1": 100, "W2": 0}},
			"protocol=Plurality2 n=100 seed=6\niterations=1 rounds=30 (1.4 × ln²n) converged=true\nW1=100 W2=0 \n"},
	}
	for _, tc := range cases {
		p, _ := Lookup(tc.spec.Protocol)
		if got := p.Summary(tc.spec, tc.rec); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.spec.Protocol, got, tc.want)
		}
	}
}
