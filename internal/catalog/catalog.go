// Package catalog is the protocol catalogue: one entry per runnable
// workload, the paper's framework programs and the counted baselines, with
// everything the layers above need to know about it. An entry normalizes
// and validates a job spec, runs one replica from a seed, and reports its
// state count, its runner hints and, for counted entries, the round prior
// admission control prices it by. popserved, popcoord, the cost model,
// popsim and popbench all read these entries, so no layer keeps its own
// copy of what a protocol is.
//
// Determinism: replica i of a job derives its whole RNG stream from
// expt.ReplicaSeed(spec.Seed, i), and Records delivers a job's records in
// replica order through a fleet.OrderedSink, whether Protocol.Run or
// popserved's job pool schedules the replicas, so the same spec yields
// byte-identical output from popsim -ndjson and from the service, for any
// worker count.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"popkit/internal/engine"
	"popkit/internal/expt"
	"popkit/internal/fleet"
)

// Protocol is one runnable entry of the catalogue.
type Protocol struct {
	// Name is the spec's protocol field.
	Name string
	// Description is shown by GET /v1/protocols.
	Description string
	// Kind is "framework" (good-iteration semantics over the paper's
	// programs) or "counted" (flat rule set on the species-count kernels).
	Kind string
	// Params lists the optional JobSpec fields the protocol honours.
	// Normalize rejects a non-zero gap or colours the entry does not list,
	// and defaults whichever of max_iters and max_rounds it does.
	Params []string
	// States reports the per-agent state count at population size n — the
	// space column of the registry's capability matrix. For framework
	// protocols the compiled variable space is independent of n; for the
	// counted protocols it grows with the level/phase range, Θ(log n) for
	// the majority pair and polynomial in log n for GS18.
	States func(n int) uint64
	// Hints are the runner-selection hints this protocol's driver runs
	// under. The zero value means the three-tier dense/batch/aggregate
	// crossover applies unmodified; StateRich pins the dense kernel for
	// protocols whose live species count grows with n.
	Hints expt.RunnerHints
	// ExpectedRounds is a counted entry's prior: the expected parallel time
	// (rounds) to convergence at population size n, which the cost model
	// turns into expected interactions. Nil for framework entries.
	ExpectedRounds func(n float64) float64
	// Replica runs one replica from seed. All randomness must derive from
	// seed; ctx cancellation must abort within a bounded amount of
	// simulated work, returning ctx's error.
	Replica func(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error)

	// check applies the entry's own defaults and validation, after the
	// checks Normalize derives from Params for every entry.
	check func(spec *expt.JobSpec) error
	// defaultMaxRounds is the max_rounds of an entry that takes one when
	// the spec leaves it zero.
	defaultMaxRounds float64
	// framework and counted are the per-entry data of the two kinds of
	// entry; Replica runs whichever is set.
	framework *framework
	counted   *counted
}

// Takes reports whether the protocol honours the named JobSpec parameter.
func (p *Protocol) Takes(param string) bool { return slices.Contains(p.Params, param) }

// defaultMaxIters mirrors popsim's historical -max-iters default.
const defaultMaxIters = 2000

// normalize applies the checks every entry shares, derived from Params,
// around the entry's own: a gap or colours the entry does not take must be
// zero, and it must not set the budget of the other kind of protocol.
func (p *Protocol) normalize(spec *expt.JobSpec) error {
	if spec.Gap != 0 && !p.Takes("gap") {
		return fmt.Errorf("gap does not apply to %q", spec.Protocol)
	}
	if spec.Colours != 0 && !p.Takes("colours") {
		return fmt.Errorf("colours does not apply to %q", spec.Protocol)
	}
	if p.check != nil {
		if err := p.check(spec); err != nil {
			return err
		}
	}
	if p.Takes("max_iters") {
		if spec.MaxIters == 0 {
			spec.MaxIters = defaultMaxIters
		}
	} else if spec.MaxIters != 0 {
		return fmt.Errorf("max_iters applies to framework protocols only; use max_rounds for %q", spec.Protocol)
	}
	if p.Takes("max_rounds") {
		if spec.MaxRounds == 0 {
			spec.MaxRounds = p.defaultMaxRounds
		}
	} else if spec.MaxRounds != 0 {
		return fmt.Errorf("max_rounds applies to counted protocols only; use max_iters for %q", spec.Protocol)
	}
	return nil
}

// Jobs expands a normalized spec into the fleet jobs of replicas
// [start, spec.Replicas). A non-zero start is the resume case: replicas
// below it were already computed (and journaled) by an earlier run, and
// because replica i's whole RNG stream derives from ReplicaSeed(Seed, i),
// the remaining replicas are unaffected by the split.
func (p *Protocol) Jobs(spec expt.JobSpec, start int) []fleet.Job {
	jobs := make([]fleet.Job, spec.Replicas-start)
	for k := range jobs {
		i := start + k
		seed := expt.ReplicaSeed(spec.Seed, i)
		jobs[k] = fleet.Job{
			ID:   i,
			Tag:  spec.Protocol,
			Seed: seed,
			Run: func(ctx context.Context, _ *engine.RNG) (any, error) {
				return p.Replica(ctx, spec, i, seed)
			},
		}
	}
	return jobs
}

// recordOf converts a fleet result back into the wire record: a healthy
// replica's record is its computed value; a failed one (panic, timeout,
// cancellation) becomes an error record in its place, with the failure
// classified in ErrKind and a panicking replica's stack preserved so the
// crash is debuggable from the stream alone.
func recordOf(spec expt.JobSpec, r fleet.Result) expt.ReplicaRecord {
	if r.Err == nil {
		if rec, ok := r.Value.(expt.ReplicaRecord); ok {
			return rec
		}
	}
	rec := expt.ReplicaRecord{
		Replica:  r.ID,
		Protocol: spec.Protocol,
		N:        spec.N,
		Seed:     r.Seed,
	}
	var pe *fleet.PanicError
	switch {
	case r.Err == nil:
		rec.Err = fmt.Sprintf("replica produced %T, want ReplicaRecord", r.Value)
		rec.ErrKind = "error"
	case errors.As(r.Err, &pe):
		rec.Err = fmt.Sprintf("replica panicked: %v", pe.Value)
		rec.ErrKind = "panic"
		rec.Stack = string(pe.Stack)
	case errors.Is(r.Err, context.DeadlineExceeded):
		rec.Err = r.Err.Error()
		rec.ErrKind = "timeout"
	case errors.Is(r.Err, context.Canceled):
		rec.Err = r.Err.Error()
		rec.ErrKind = "cancelled"
	default:
		rec.Err = r.Err.Error()
		rec.ErrKind = "error"
	}
	return rec
}

// RunOptions configures one Protocol.Run. None of its fields change the
// records produced — only how (and whether) they get recomputed.
type RunOptions struct {
	// Workers is the replica-fleet width.
	Workers int
	// MaxRetries re-executes panicked or fault-killed replicas from their
	// own seed (fleet.Options.MaxRetries), so transient crashes never
	// reach the stream.
	MaxRetries int
	// Observe, when non-nil, receives every fleet result as it completes —
	// called concurrently from worker goroutines, unlike the ordered record
	// sink — carrying the latency and attempt telemetry the wire records
	// don't.
	Observe func(fleet.Result)
	// FleetStats, when non-nil, is filled with the job's per-worker fleet
	// tallies — replicas run, retry attempts, busy time
	// (fleet.Options.Stats) — valid once Run returns.
	FleetStats *fleet.Stats
}

// Run executes the spec's replicas [0, spec.Replicas) across the fleet,
// delivering records to sink in replica order as they complete (sink is
// never called concurrently), and returns Records.Err.
func (p *Protocol) Run(ctx context.Context, spec expt.JobSpec, opts RunOptions, sink func(expt.ReplicaRecord)) error {
	out := NewRecords(spec, 0, sink)
	var fanout fleet.ResultSink = out
	if opts.Observe != nil {
		fanout = fleet.MultiSink{out, fleet.SinkFunc(opts.Observe)}
	}
	fleet.Run(ctx, p.Jobs(spec, 0), fleet.Options{
		Workers:    opts.Workers,
		MaxRetries: opts.MaxRetries,
		Sink:       fanout,
		Stats:      opts.FleetStats,
	})
	return out.Err()
}

// Records turns one job's replica results into its record stream: each
// result becomes a wire record (recordOf) delivered to the sink in replica
// order from the job's first replica, through a fleet.OrderedSink, and the
// first failure in replica order is kept for Err. Protocol.Run feeds it
// from a fleet; popserved's job pool feeds it one replica at a time. Emit
// is safe for concurrent use.
type Records struct {
	ordered *fleet.OrderedSink
	err     error // guarded by ordered's lock: written only from its inner sink
}

// NewRecords returns the record stream of spec's replicas from start on.
func NewRecords(spec expt.JobSpec, start int, sink func(expt.ReplicaRecord)) *Records {
	out := &Records{}
	out.ordered = fleet.NewOrderedSinkAt(fleet.SinkFunc(func(r fleet.Result) {
		if r.Err != nil && out.err == nil {
			out.err = fmt.Errorf("replica %d (seed %d): %w", r.ID, r.Seed, r.Err)
		}
		sink(recordOf(spec, r))
	}), start)
	return out
}

// Emit implements fleet.ResultSink.
func (o *Records) Emit(r fleet.Result) { o.ordered.Emit(r) }

// Err returns the first replica's error in replica order, if any —
// cancellations and panics included — and otherwise reports a panicking
// sink, so a record that never reached the stream can't pass for success.
// Valid once every replica's result has been emitted.
func (o *Records) Err() error {
	sinkErr := o.ordered.SinkErr() // takes ordered's lock, so err is settled
	if o.err != nil {
		return o.err
	}
	return sinkErr
}

// Registry maps protocol names to runnable workloads.
type Registry struct {
	m map[string]*Protocol
}

// NewRegistry returns a registry of the built-in protocols: the paper's
// framework programs (leader, leaderexact, majority, majorityexact,
// plurality), the counted prior-work baselines the paper compares against
// in §1.2 / experiment E11 (approxmajority, exactmajority, coalescence) and
// the related-work library (gsexactmajority, aagmajority, gs18leader).
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]*Protocol)}
	for _, p := range builtins() {
		if err := r.Register(p); err != nil {
			panic(err)
		}
	}
	return r
}

// builtin is the registry Lookup reads.
var builtin = NewRegistry()

// Lookup finds a built-in protocol by name.
func Lookup(name string) (*Protocol, bool) { return builtin.Lookup(name) }

// Register adds a protocol; duplicate names are an error.
func (r *Registry) Register(p *Protocol) error {
	if p.Name == "" || p.Replica == nil {
		return fmt.Errorf("catalog: protocol needs a name and a replica body")
	}
	if _, dup := r.m[p.Name]; dup {
		return fmt.Errorf("catalog: protocol %q already registered", p.Name)
	}
	r.m[p.Name] = p
	return nil
}

// Lookup finds a protocol by name.
func (r *Registry) Lookup(name string) (*Protocol, bool) {
	p, ok := r.m[name]
	return p, ok
}

// List returns the protocols sorted by name.
func (r *Registry) List() []*Protocol {
	out := make([]*Protocol, 0, len(r.m))
	for _, p := range r.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted protocol names.
func (r *Registry) Names() []string {
	list := r.List()
	names := make([]string, len(list))
	for i, p := range list {
		names[i] = p.Name
	}
	return names
}

// Normalize validates the spec against the registry and the given limits,
// applying defaults in place, and returns the protocol that will run it.
func (r *Registry) Normalize(spec *expt.JobSpec, maxN, maxReplicas int) (*Protocol, error) {
	if err := spec.NormalizeCommon(maxN, maxReplicas); err != nil {
		return nil, err
	}
	p, ok := r.Lookup(spec.Protocol)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (known: %v)", spec.Protocol, r.Names())
	}
	if err := p.normalize(spec); err != nil {
		return nil, err
	}
	return p, nil
}
