// Package serve exposes the simulation stack as an HTTP service: a
// protocol registry naming runnable workloads, a bounded job queue with
// backpressure, a worker pool backed by the replica fleet, and NDJSON
// streaming of per-replica results.
//
// Determinism survives the network boundary by construction: a job is an
// expt.JobSpec, replica i derives its whole RNG stream from
// expt.ReplicaSeed(spec.Seed, i), records are streamed in replica order
// through a fleet.OrderedSink, and the CLI (popsim -ndjson) runs the exact
// same registry code — so the same spec yields byte-identical output from
// either entry point, for any worker count.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/expt"
	"popkit/internal/fleet"
	"popkit/internal/frame"
	"popkit/internal/lang"
	"popkit/internal/obs"
	"popkit/internal/protocols"
)

// Protocol is one runnable entry of the registry.
type Protocol struct {
	// Name is the spec's protocol field.
	Name string
	// Description is shown by GET /v1/protocols.
	Description string
	// Kind is "framework" (good-iteration semantics over the paper's
	// programs) or "counted" (flat rule set on the species-count kernels).
	Kind string
	// Params lists the optional JobSpec fields the protocol honours.
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

	// normalize applies protocol-specific defaults and validation, after
	// JobSpec.NormalizeCommon has run.
	normalize func(spec *expt.JobSpec) error
	// run executes one replica. All randomness must derive from
	// expt.ReplicaSeed(spec.Seed, replica); ctx cancellation must abort
	// within a bounded amount of simulated work.
	run func(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error)
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
		jobs[k] = fleet.Job{
			ID:   i,
			Tag:  spec.Protocol,
			Seed: expt.ReplicaSeed(spec.Seed, i),
			Run: func(ctx context.Context, _ *engine.RNG) (any, error) {
				return p.run(ctx, spec, i)
			},
		}
	}
	return jobs
}

// RecordOf converts a fleet result back into the wire record: a healthy
// replica's record is its computed value; a failed one (panic, timeout,
// cancellation) becomes an error record in its place, with the failure
// classified in ErrKind and a panicking replica's stack preserved so the
// crash is debuggable from the stream alone.
func RecordOf(spec expt.JobSpec, r fleet.Result) expt.ReplicaRecord {
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
	// Start skips replicas below this index — the checkpoint-resume case,
	// where a journal already holds records [0, Start).
	Start int
	// Observe, when non-nil, receives every fleet result as it completes —
	// called concurrently from worker goroutines, unlike the ordered record
	// sink — carrying the latency and attempt telemetry the wire records
	// don't.
	Observe func(fleet.Result)
	// FleetStats, when non-nil, is filled with the job's per-worker fleet
	// tallies — work-stealing traffic, retry attempts, busy time
	// (fleet.Options.Stats) — valid once Run returns. (It has nothing to do
	// with /v1/sweep; "sweep" in older comments meant one job's replica
	// fan-out, a usage retired when the parameter-grid sweep API arrived.)
	FleetStats *fleet.Stats
	// Join, when non-nil, receives the fleet's Helper once the job starts,
	// so goroutines outside the fleet can run its unclaimed replicas
	// (fleet.Options.Join) — how popserved's idle job slots lend
	// themselves to a running job.
	Join func(*fleet.Helper)
}

// Run executes the spec's replicas [opts.Start, spec.Replicas) across the
// fleet, delivering records to sink in replica order as they complete (sink
// is never called concurrently). It returns the first replica's error in
// replica order, if any — cancellations and panics included — and reports a
// panicking sink, so a record that never reached the stream can't pass for
// success.
func (p *Protocol) Run(ctx context.Context, spec expt.JobSpec, opts RunOptions, sink func(expt.ReplicaRecord)) error {
	ordered := fleet.NewOrderedSinkAt(fleet.SinkFunc(func(r fleet.Result) {
		sink(RecordOf(spec, r))
	}), opts.Start)
	var fanout fleet.ResultSink = ordered
	if opts.Observe != nil {
		fanout = fleet.MultiSink{ordered, fleet.SinkFunc(opts.Observe)}
	}
	results := fleet.Run(ctx, p.Jobs(spec, opts.Start), fleet.Options{
		Workers:    opts.Workers,
		MaxRetries: opts.MaxRetries,
		Sink:       fanout,
		Stats:      opts.FleetStats,
		Join:       opts.Join,
	})
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("replica %d (seed %d): %w", r.ID, r.Seed, r.Err)
		}
	}
	return ordered.SinkErr()
}

// Registry maps protocol names to runnable workloads.
type Registry struct {
	m map[string]*Protocol
}

// NewRegistry returns a registry of the built-in protocols: the paper's
// framework programs (leader, leaderexact, majority, majorityexact,
// plurality) and the counted prior-work baselines the paper compares
// against in §1.2 / experiment E11 (approxmajority, exactmajority,
// coalescence).
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]*Protocol)}
	for _, p := range builtins() {
		if err := r.Register(p); err != nil {
			panic(err)
		}
	}
	return r
}

// Register adds a protocol; duplicate names are an error.
func (r *Registry) Register(p *Protocol) error {
	if p.Name == "" || p.run == nil {
		return fmt.Errorf("serve: protocol needs a name and a run body")
	}
	if _, dup := r.m[p.Name]; dup {
		return fmt.Errorf("serve: protocol %q already registered", p.Name)
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
	if p.normalize != nil {
		if err := p.normalize(spec); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ---- framework protocols (frame executor, good-iteration semantics) ----

// defaultMaxIters mirrors popsim's historical -max-iters default.
const defaultMaxIters = 2000

func normalizeFramework(spec *expt.JobSpec) error {
	if spec.MaxIters == 0 {
		spec.MaxIters = defaultMaxIters
	}
	if spec.MaxRounds != 0 {
		return fmt.Errorf("max_rounds applies to counted protocols only; use max_iters for %q", spec.Protocol)
	}
	return nil
}

// runFramework builds the program, seeds the inputs, and runs to the
// convergence condition, mirroring popsim's semantics exactly.
func runFramework(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{
		Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed,
	}
	prog, err := frameworkProgram(spec)
	if err != nil {
		return rec, err
	}
	e, err := frame.New(prog, spec.N, seed)
	if err != nil {
		return rec, err
	}
	// A timeline attached to the context (obs.WithTrace — popsim -trace)
	// rides along; tracing draws nothing from the RNG, so records stay
	// byte-identical with or without it.
	if tr := obs.FromContext(ctx); tr != nil {
		e.Trace = tr
		e.TraceReplica = replica
	}
	setupFrameworkInputs(e, spec)
	cond := frameworkConvergence(spec)
	iters, ok := e.RunUntil(func(e *frame.Executor) bool {
		return ctx.Err() != nil || cond(e)
	}, spec.MaxIters)
	if err := ctx.Err(); err != nil {
		return rec, err
	}
	rec.Iterations = iters
	rec.Rounds = e.Rounds
	rec.Converged = ok
	rec.Counts = frameworkCounts(e, spec)
	return rec, nil
}

func frameworkProgram(spec expt.JobSpec) (*lang.Program, error) {
	switch spec.Protocol {
	case "leader":
		return protocols.LeaderElection(), nil
	case "leaderexact":
		return protocols.LeaderElectionExact(), nil
	case "majority":
		return protocols.Majority(2), nil
	case "majorityexact":
		return protocols.MajorityExact(2), nil
	case "plurality":
		return protocols.Plurality(spec.Colours, 2), nil
	}
	return nil, fmt.Errorf("no framework program for %q", spec.Protocol)
}

// setupFrameworkInputs assigns the initial input variables the same way
// popsim does: a gap-split A/B population for the majority family, a
// decreasing colour split for plurality.
func setupFrameworkInputs(e *frame.Executor, spec expt.JobSpec) {
	switch spec.Protocol {
	case "majority", "majorityexact":
		a, _ := e.Space.LookupVar("A")
		b, _ := e.Space.LookupVar("B")
		nB := (spec.N - spec.Gap) / 2
		nA := nB + spec.Gap
		e.SetInput(func(i int, s bitmask.State) bitmask.State {
			switch {
			case i < nA:
				s = a.Set(s, true)
			case i < nA+nB:
				s = b.Set(s, true)
			default:
				return s
			}
			if spec.Protocol == "majorityexact" {
				at, _ := e.Space.LookupVar("At")
				bt, _ := e.Space.LookupVar("Bt")
				if i < nA {
					s = at.Set(s, true)
				} else {
					s = bt.Set(s, true)
				}
			}
			return s
		})
	case "plurality":
		colours := spec.Colours
		vars := make([]bitmask.Var, colours)
		for i := range vars {
			vars[i], _ = e.Space.LookupVar(fmt.Sprintf("C%d", i+1))
		}
		sizes := make([]int, colours)
		base := spec.N / (colours + 1)
		rem := spec.N
		for i := range sizes {
			sizes[i] = base - i
			rem -= sizes[i]
		}
		sizes[0] += rem
		e.SetInput(func(i int, s bitmask.State) bitmask.State {
			acc := 0
			for c := 0; c < colours; c++ {
				acc += sizes[c]
				if i < acc {
					return vars[c].Set(s, true)
				}
			}
			return s
		})
	}
}

func frameworkConvergence(spec expt.JobSpec) func(*frame.Executor) bool {
	n := spec.N
	switch spec.Protocol {
	case "leader":
		return func(e *frame.Executor) bool { return e.CountVar("L") == 1 }
	case "leaderexact":
		return func(e *frame.Executor) bool { return e.CountVar("L") == 1 && e.CountVar("R") == 1 }
	case "majority":
		return func(e *frame.Executor) bool {
			y := e.CountVar("YA")
			return (y == 0 || y == n) && e.Iterations >= 3
		}
	case "majorityexact":
		return func(e *frame.Executor) bool {
			return (e.CountVar("At") == 0 || e.CountVar("Bt") == 0) && e.Iterations >= 3
		}
	default: // plurality
		return func(e *frame.Executor) bool { return e.CountVar("W1") == n }
	}
}

func frameworkCounts(e *frame.Executor, spec expt.JobSpec) map[string]int64 {
	out := map[string]int64{}
	switch spec.Protocol {
	case "leader", "leaderexact":
		out["L"] = int64(e.CountVar("L"))
	case "majority", "majorityexact":
		out["YA"] = int64(e.CountVar("YA"))
	case "plurality":
		for c := 1; c <= spec.Colours; c++ {
			key := fmt.Sprintf("W%d", c)
			out[key] = int64(e.CountVar(key))
		}
	}
	return out
}

// ---- counted baselines (species-count kernels via expt.Driver) ----

// driveSliced advances the driver until stop or the round budget, slicing
// the budget so cancellation is honoured between slices even while the
// tracker-gated kernels skip condition polls.
func driveSliced(ctx context.Context, drv *expt.Driver, stop func() bool, maxRounds float64) (rounds float64, ok bool, err error) {
	const slice = 4096.0
	for rounds < maxRounds {
		if err := ctx.Err(); err != nil {
			return rounds, false, err
		}
		step := slice
		if rem := maxRounds - rounds; rem < step {
			step = rem
		}
		r, done := drv.RunUntil(stop, step)
		rounds += r
		if done {
			return rounds, true, nil
		}
		if r <= 0 {
			// Defensive: a kernel that cannot advance must not spin here.
			return rounds, stop(), nil
		}
	}
	return rounds, false, nil
}

// attachTrace wires a context-carried obs timeline (if any) into a counted
// driver, so traced runs emit their tracked-count timeline (one "count"
// event per parallel round) without perturbing the trajectory.
func attachTrace(ctx context.Context, drv *expt.Driver, replica int) {
	if tr := obs.FromContext(ctx); tr != nil {
		drv.SetTrace(tr, replica)
	}
}

// splitGap splits n agents into opinion-A and opinion-B camps with the
// spec's gap (every agent carries an opinion; odd remainders favour A).
func splitGap(n, gap int) (nA, nB int64) {
	b := int64(n-gap) / 2
	return int64(n) - b, b
}

func runApproxMajority(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	am := baseline.NewApproxMajority()
	sA := am.A.Set(bitmask.State{}, true)
	sB := am.B.Set(bitmask.State{}, true)
	nA, nB := splitGap(spec.N, spec.Gap)
	drv := expt.NewDriver(engine.CompileProtocol(am.Rules()), map[bitmask.State]int64{sA: nA, sB: nB}, engine.NewRNG(seed), expt.RunnerHints{})
	ta := drv.Track("A", bitmask.Is(am.A))
	tb := drv.Track("B", bitmask.Is(am.B))
	attachTrace(ctx, drv, replica)
	rounds, ok, err := driveSliced(ctx, drv, func() bool {
		return ta.Count() == 0 || tb.Count() == 0
	}, spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"A": ta.Count(), "B": tb.Count()}
	return rec, nil
}

func runExactMajority(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	em := baseline.NewExactMajority4()
	emA := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
	emB := em.Strong.Set(bitmask.State{}, true)
	nA, nB := splitGap(spec.N, spec.Gap)
	drv := expt.NewDriver(engine.CompileProtocol(em.Rules()), map[bitmask.State]int64{emA: nA, emB: nB}, engine.NewRNG(seed), expt.RunnerHints{})
	ta := drv.Track("A", bitmask.Is(em.IsA))
	attachTrace(ctx, drv, replica)
	n64 := int64(spec.N)
	rounds, ok, err := driveSliced(ctx, drv, func() bool {
		a := ta.Count()
		return a == 0 || a == n64
	}, spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"A": ta.Count()}
	return rec, nil
}

func runCoalescence(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	cl := baseline.NewCoalescenceLeader()
	sL := cl.L.Set(bitmask.State{}, true)
	drv := expt.NewDriver(engine.CompileProtocol(cl.Rules()), map[bitmask.State]int64{sL: int64(spec.N)}, engine.NewRNG(seed), expt.RunnerHints{})
	tl := drv.Track("L", bitmask.Is(cl.L))
	attachTrace(ctx, drv, replica)
	rounds, ok, err := driveSliced(ctx, drv, func() bool { return tl.Count() == 1 }, spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"L": tl.Count()}
	return rec, nil
}

// ---- related-work protocols (internal/protocols, counted kernels) ----

// majorityStop is the shared decision condition of the exact-majority
// protocols: an A verdict is "no B tokens survive and every agent outputs
// A", a B verdict the mirror image. The conserved weighted opinion sum
// makes the surviving sign always the true initial majority.
func majorityStop(n int64, tokA, tokB, out expt.Counter) func() bool {
	return func() bool {
		if tokB.Count() == 0 && out.Count() == n {
			return true
		}
		return tokA.Count() == 0 && out.Count() == 0
	}
}

func runCDMajority(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	m := protocols.NewCDMajority(spec.N)
	nA, nB := splitGap(spec.N, spec.Gap)
	drv := expt.NewDriver(engine.CompileProtocol(m.Rules()), m.InitCounts(nA, nB), engine.NewRNG(seed), expt.RunnerHints{})
	tokA := drv.Track("TokA", bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)))
	tokB := drv.Track("TokB", bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)))
	out := drv.Track("Out", bitmask.Is(m.Out))
	attachTrace(ctx, drv, replica)
	rounds, ok, err := driveSliced(ctx, drv, majorityStop(int64(spec.N), tokA, tokB, out), spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"TokA": tokA.Count(), "TokB": tokB.Count(), "Out": out.Count()}
	return rec, nil
}

func runPRMajority(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	m := protocols.NewPRMajority(spec.N)
	nA, nB := splitGap(spec.N, spec.Gap)
	drv := expt.NewDriver(engine.CompileProtocol(m.Rules()), m.InitCounts(nA, nB), engine.NewRNG(seed), expt.RunnerHints{})
	tokA := drv.Track("TokA", bitmask.And(bitmask.Is(m.Tok), bitmask.Is(m.OpA)))
	tokB := drv.Track("TokB", bitmask.And(bitmask.Is(m.Tok), bitmask.IsNot(m.OpA)))
	out := drv.Track("Out", bitmask.Is(m.Out))
	attachTrace(ctx, drv, replica)
	rounds, ok, err := driveSliced(ctx, drv, majorityStop(int64(spec.N), tokA, tokB, out), spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"TokA": tokA.Count(), "TokB": tokB.Count(), "Out": out.Count()}
	return rec, nil
}

func runGS18Leader(ctx context.Context, spec expt.JobSpec, replica int) (expt.ReplicaRecord, error) {
	seed := expt.ReplicaSeed(spec.Seed, replica)
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	g := protocols.NewGS18Leader(spec.N)
	rng := engine.NewRNG(seed)
	// InitCounts draws the oscillator species from the same stream the
	// driver then consumes — the whole replica derives from one seed.
	counts := g.InitCounts(spec.N, rng)
	drv := expt.NewDriver(engine.CompileProtocol(g.Rules()), counts, rng, gs18Hints)
	tl := drv.Track("L", bitmask.Is(g.L))
	attachTrace(ctx, drv, replica)
	rounds, ok, err := driveSliced(ctx, drv, func() bool { return tl.Count() == 1 }, spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = map[string]int64{"L": tl.Count()}
	return rec, nil
}

// gs18Hints pins GS18 to the dense kernel: its live species count grows
// with n, which makes the counted kernels' per-firing cost degenerate.
var gs18Hints = expt.RunnerHints{StateRich: true}

func normalizeCounted(defaultRounds float64) func(*expt.JobSpec) error {
	return func(spec *expt.JobSpec) error {
		if spec.MaxIters != 0 {
			return fmt.Errorf("max_iters applies to framework protocols only; use max_rounds for %q", spec.Protocol)
		}
		if spec.MaxRounds == 0 {
			spec.MaxRounds = defaultRounds
		}
		return nil
	}
}

// frameworkStates computes the compiled per-agent state count of a
// framework program. The variable space is fixed by the program text, so
// any legal n gives the same answer; n = 64 keeps the probe cheap.
func frameworkStates(build func() *lang.Program) func(int) uint64 {
	return func(int) uint64 {
		e, err := frame.New(build(), 64, 1)
		if err != nil {
			return 0
		}
		return e.Space.NumStates()
	}
}

func builtins() []*Protocol {
	noGapColours := func(spec *expt.JobSpec) error {
		if spec.Gap != 0 {
			return fmt.Errorf("gap does not apply to %q", spec.Protocol)
		}
		if spec.Colours != 0 {
			return fmt.Errorf("colours does not apply to %q", spec.Protocol)
		}
		return nil
	}
	noColours := func(spec *expt.JobSpec) error {
		if spec.Colours != 0 {
			return fmt.Errorf("colours does not apply to %q", spec.Protocol)
		}
		return nil
	}
	return []*Protocol{
		{
			Name:        "leader",
			Description: "LeaderElection (§3.1): w.h.p. unique leader in O(log² n) rounds",
			Kind:        "framework",
			Params:      []string{"max_iters"},
			States:      frameworkStates(protocols.LeaderElection),
			normalize: func(spec *expt.JobSpec) error {
				if err := noGapColours(spec); err != nil {
					return err
				}
				return normalizeFramework(spec)
			},
			run: runFramework,
		},
		{
			Name:        "leaderexact",
			Description: "LeaderElectionExact (§6.1): always-correct unique leader",
			Kind:        "framework",
			Params:      []string{"max_iters"},
			States:      frameworkStates(protocols.LeaderElectionExact),
			normalize: func(spec *expt.JobSpec) error {
				if err := noGapColours(spec); err != nil {
					return err
				}
				return normalizeFramework(spec)
			},
			run: runFramework,
		},
		{
			Name:        "majority",
			Description: "Majority (§3.2): w.h.p. exact majority for any gap ≥ 1",
			Kind:        "framework",
			Params:      []string{"gap", "max_iters"},
			States:      frameworkStates(func() *lang.Program { return protocols.Majority(2) }),
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				return normalizeFramework(spec)
			},
			run: runFramework,
		},
		{
			Name:        "majorityexact",
			Description: "MajorityExact (§6.2): always-correct exact majority",
			Kind:        "framework",
			Params:      []string{"gap", "max_iters"},
			States:      frameworkStates(func() *lang.Program { return protocols.MajorityExact(2) }),
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				return normalizeFramework(spec)
			},
			run: runFramework,
		},
		{
			Name:        "plurality",
			Description: "Plurality consensus (§1.1): l-colour plurality with O(l²) states",
			Kind:        "framework",
			Params:      []string{"colours", "max_iters"},
			States:      frameworkStates(func() *lang.Program { return protocols.Plurality(3, 2) }),
			normalize: func(spec *expt.JobSpec) error {
				if spec.Gap != 0 {
					return fmt.Errorf("gap does not apply to %q", spec.Protocol)
				}
				if spec.Colours == 0 {
					spec.Colours = 3
				}
				if spec.Colours < 2 {
					return fmt.Errorf("colours must be ≥ 2 (got %d)", spec.Colours)
				}
				if spec.N < (spec.Colours+1)*spec.Colours {
					return fmt.Errorf("n too small for %d colours (need at least %d agents)", spec.Colours, (spec.Colours+1)*spec.Colours)
				}
				return normalizeFramework(spec)
			},
			run: runFramework,
		},
		{
			Name:        "approxmajority",
			Description: "3-state approximate majority [AAE08a] (§1.2 / E11 baseline)",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(int) uint64 { return baseline.NewApproxMajority().Rules().Space.NumStates() },
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				return normalizeCounted(1e6)(spec)
			},
			run: runApproxMajority,
		},
		{
			Name:        "exactmajority",
			Description: "4-state exact majority [DV12], Θ(n log n) rounds (the E11 load-test workload)",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(int) uint64 { return baseline.NewExactMajority4().Rules().Space.NumStates() },
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				return normalizeCounted(1e9)(spec)
			},
			run: runExactMajority,
		},
		{
			Name:        "coalescence",
			Description: "folklore coalescence leader election, Θ(n) rounds (E11 baseline)",
			Kind:        "counted",
			Params:      []string{"max_rounds"},
			States:      func(int) uint64 { return baseline.NewCoalescenceLeader().Rules().Space.NumStates() },
			normalize: func(spec *expt.JobSpec) error {
				if err := noGapColours(spec); err != nil {
					return err
				}
				return normalizeCounted(1e9)(spec)
			},
			run: runCoalescence,
		},
		{
			Name:        "gsexactmajority",
			Description: "cancelling–doubling exact majority [arXiv:2011.07392]: always correct at any gap, O(log n) states",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(n int) uint64 { return uint64(protocols.NewCDMajority(n).States()) },
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				if spec.Gap == 0 {
					// Exactness holds for any non-zero margin; a dead tie has
					// no majority to report, so default to the adversarial
					// minimum rather than accept an unanswerable input.
					spec.Gap = 1
				}
				return normalizeCounted(1e6)(spec)
			},
			run: runCDMajority,
		},
		{
			Name:        "aagmajority",
			Description: "phase-ratcheted exact majority [arXiv:1704.04947]: space-optimal always-correct majority",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(n int) uint64 { return uint64(protocols.NewPRMajority(n).States()) },
			normalize: func(spec *expt.JobSpec) error {
				if err := noColours(spec); err != nil {
					return err
				}
				if spec.Gap == 0 {
					spec.Gap = 1
				}
				return normalizeCounted(1e6)(spec)
			},
			run: runPRMajority,
		},
		{
			Name:        "gs18leader",
			Description: "junta-clocked leader election [arXiv:1802.06867]: polylog-time w.h.p., phase-clock driven elimination",
			Kind:        "counted",
			Params:      []string{"max_rounds"},
			States:      func(n int) uint64 { return uint64(protocols.NewGS18Leader(n).States()) },
			Hints:       gs18Hints,
			normalize: func(spec *expt.JobSpec) error {
				if err := noGapColours(spec); err != nil {
					return err
				}
				if spec.N < 16 {
					return fmt.Errorf("gs18leader needs n ≥ 16 (got %d): the junta construction degenerates below that", spec.N)
				}
				if spec.N > 1<<20 {
					return fmt.Errorf("gs18leader caps n at %d (got %d): the state-rich space pins the dense kernel, which holds every agent in memory", 1<<20, spec.N)
				}
				return normalizeCounted(1e5)(spec)
			},
			run: runGS18Leader,
		},
	}
}
