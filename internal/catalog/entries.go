package catalog

import (
	"context"
	"fmt"
	"math"
	"strings"

	"popkit/internal/baseline"
	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/expt"
	"popkit/internal/frame"
	"popkit/internal/lang"
	"popkit/internal/obs"
	"popkit/internal/protocols"
	"popkit/internal/rules"
)

// ---- framework protocols (frame executor, good-iteration semantics) ----

// framework is what sets one framework entry's replicas apart: program
// builds the entry's program for the spec; inputs lays out the initial
// input variables (nil leaves every agent as the program declares it);
// done is the stop condition, given the population size; and report
// renders the counts of the program's output variables, given in
// declaration order, as the last line of popsim's text summary.
type framework struct {
	program func(spec expt.JobSpec) *lang.Program
	inputs  func(e *frame.Executor, spec expt.JobSpec)
	done    func(e *frame.Executor, n int) bool
	report  func(outputs []string, counts map[string]int64) string
}

// runFramework is the replica body of every framework entry: it builds the
// program, seeds the inputs, runs to the stop condition, and counts each
// of the program's output variables. A cancelled run returns the record as
// far as it got, unconverged, with ctx's error, so popsim can still print
// a partial summary.
func (p *Protocol) runFramework(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
	f := p.framework
	rec := expt.ReplicaRecord{
		Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed,
	}
	prog := f.program(spec)
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
	if f.inputs != nil {
		f.inputs(e, spec)
	}
	iters, ok := e.RunUntil(func(e *frame.Executor) bool {
		return ctx.Err() != nil || f.done(e, spec.N)
	}, spec.MaxIters)
	err = ctx.Err()
	rec.Iterations = iters
	rec.Rounds = e.Rounds
	rec.Converged = ok && err == nil
	vars := outputVars(prog)
	rec.Counts = make(map[string]int64, len(vars))
	for _, v := range vars {
		rec.Counts[v] = int64(e.CountVar(v))
	}
	return rec, err
}

// states reports the compiled per-agent state count of the entry's program
// at the default colours. The variable space is fixed by the program text,
// so any legal n gives the same answer; n = 64 keeps the probe cheap.
func (f *framework) states(int) uint64 {
	e, err := frame.New(f.program(expt.JobSpec{N: 64, Colours: defaultColours}), 64, 1)
	if err != nil {
		return 0
	}
	return e.Space.NumStates()
}

// Summary renders a framework entry's replica as popsim's text summary:
// the program as its text names it, population and seed; the iterations
// and parallel rounds, also in units of ln²n; and the program's outputs.
// It is defined for framework entries only.
func (p *Protocol) Summary(spec expt.JobSpec, rec expt.ReplicaRecord) string {
	prog := p.framework.program(spec)
	return fmt.Sprintf("protocol=%s n=%d seed=%d\niterations=%d rounds=%.0f (%.1f × ln²n) converged=%v\n%s",
		prog.Name, spec.N, rec.Seed,
		rec.Iterations, rec.Rounds, rec.Rounds/math.Pow(math.Log(float64(spec.N)), 2), rec.Converged,
		p.framework.report(outputVars(prog), rec.Counts))
}

// outputVars names a program's output variables in declaration order.
func outputVars(prog *lang.Program) []string {
	var vars []string
	for _, d := range prog.Vars {
		if d.Role == lang.Output {
			vars = append(vars, d.Name)
		}
	}
	return vars
}

// reportLeaders, reportYA and reportEach are the summary lines of the
// leader elections, of the majorities and of plurality, which lists every
// output's count.
func reportLeaders(_ []string, c map[string]int64) string {
	return fmt.Sprintf("leaders=%d\n", c["L"])
}

func reportYA(_ []string, c map[string]int64) string {
	return fmt.Sprintf("YA=%d (on means A is the majority)\n", c["YA"])
}

func reportEach(outputs []string, c map[string]int64) string {
	var b strings.Builder
	for _, v := range outputs {
		fmt.Fprintf(&b, "%s=%d ", v, c[v])
	}
	b.WriteString("\n")
	return b.String()
}

// gapInputs splits the population into an A camp and a B camp with the
// spec's gap; with tokens, each camp also holds its token variable (At or
// Bt), as MajorityExact's inputs require.
func gapInputs(tokens bool) func(*frame.Executor, expt.JobSpec) {
	return func(e *frame.Executor, spec expt.JobSpec) {
		a, _ := e.Space.LookupVar("A")
		b, _ := e.Space.LookupVar("B")
		at, _ := e.Space.LookupVar("At")
		bt, _ := e.Space.LookupVar("Bt")
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
			if tokens {
				if i < nA {
					s = at.Set(s, true)
				} else {
					s = bt.Set(s, true)
				}
			}
			return s
		})
	}
}

// defaultColours is plurality's colour count when the spec leaves it zero.
const defaultColours = 3

// pluralityInputs gives the colours a decreasing split: colour c+1 gets
// one agent fewer than colour c, and colour 1 also takes the remainder.
func pluralityInputs(e *frame.Executor, spec expt.JobSpec) {
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

// ---- counted protocols (species-count kernels via expt.Driver) ----

// counted is what sets one counted entry's replicas apart: build compiles
// the ruleset for the spec and lays out its initial species counts,
// drawing from rng when they are random, and names the counts to track in
// the order the driver registers them; done is the stop condition over
// those counts, given the population size.
type counted struct {
	build func(spec expt.JobSpec, rng *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked)
	done  func(c []expt.Counter, n int64) bool
}

// tracked is one count a counted replica tracks and reports.
type tracked struct {
	name string
	f    bitmask.Formula
}

// runCounted is the replica body of every counted entry: it drives the
// entry's ruleset on the kernel its hints select until the stop condition
// holds or the round budget runs out, and reports each tracked count.
func (p *Protocol) runCounted(ctx context.Context, spec expt.JobSpec, replica int, seed uint64) (expt.ReplicaRecord, error) {
	rec := expt.ReplicaRecord{Replica: replica, Protocol: spec.Protocol, N: spec.N, Seed: seed}
	// build may draw from the same stream the driver then consumes — the
	// whole replica derives from one seed.
	rng := engine.NewRNG(seed)
	rs, init, tracks := p.counted.build(spec, rng)
	drv := expt.NewDriver(engine.CompileProtocol(rs), init, rng, p.Hints)
	counters := make([]expt.Counter, len(tracks))
	for i, t := range tracks {
		counters[i] = drv.Track(t.name, t.f)
	}
	// A context-carried timeline gets one "count" event per parallel round
	// without perturbing the trajectory.
	if tr := obs.FromContext(ctx); tr != nil {
		drv.SetTrace(tr, replica)
	}
	n, done := int64(spec.N), p.counted.done
	rounds, ok, err := driveSliced(ctx, drv, func() bool { return done(counters, n) }, spec.MaxRounds)
	if err != nil {
		return rec, err
	}
	rec.Rounds = rounds
	rec.Converged = ok
	rec.Runner = drv.Kind.String()
	rec.RunnerReason = drv.Reason
	rec.Interactions = drv.Interactions()
	rec.Counts = make(map[string]int64, len(tracks))
	for i, t := range tracks {
		rec.Counts[t.name] = counters[i].Count()
	}
	return rec, nil
}

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

// splitGap splits n agents into opinion-A and opinion-B camps with the
// spec's gap (every agent carries an opinion; odd remainders favour A).
func splitGap(n, gap int) (nA, nB int64) {
	b := int64(n-gap) / 2
	return int64(n) - b, b
}

// leaderDone is the stop condition of the leader elections: exactly one
// agent still holds the tracked leader bit.
func leaderDone(c []expt.Counter, _ int64) bool { return c[0].Count() == 1 }

// tokenTracks are the counts of the cancelling–doubling exact majorities
// (gsexactmajority, aagmajority): each camp's surviving opinion tokens and
// the agents outputting A.
func tokenTracks(tok, opA, out bitmask.Var) []tracked {
	return []tracked{
		{"TokA", bitmask.And(bitmask.Is(tok), bitmask.Is(opA))},
		{"TokB", bitmask.And(bitmask.Is(tok), bitmask.IsNot(opA))},
		{"Out", bitmask.Is(out)},
	}
}

// tokenMajorityRounds is the prior of the cancelling–doubling majorities:
// polylog rounds at any gap (measured ≈ 430/340 rounds at n=512, gap 1 —
// ~10·ln² n).
func tokenMajorityRounds(n float64) float64 {
	ln := math.Log(n)
	return 10 * ln * ln
}

// majorityDone is the shared decision condition of the exact-majority
// protocols: an A verdict is "no B tokens survive and every agent outputs
// A", a B verdict the mirror image. The conserved weighted opinion sum
// makes the surviving sign always the true initial majority.
func majorityDone(c []expt.Counter, n int64) bool {
	tokA, tokB, out := c[0], c[1], c[2]
	if tokB.Count() == 0 && out.Count() == n {
		return true
	}
	return tokA.Count() == 0 && out.Count() == 0
}

// ---- the entries ----

func builtins() []*Protocol {
	list := []*Protocol{
		{
			Name:        "leader",
			Description: "LeaderElection (§3.1): w.h.p. unique leader in O(log² n) rounds",
			Kind:        "framework",
			Params:      []string{"max_iters"},
			framework: &framework{
				program: func(expt.JobSpec) *lang.Program { return protocols.LeaderElection() },
				done:    func(e *frame.Executor, _ int) bool { return e.CountVar("L") == 1 },
				report:  reportLeaders,
			},
		},
		{
			Name:        "leaderexact",
			Description: "LeaderElectionExact (§6.1): always-correct unique leader",
			Kind:        "framework",
			Params:      []string{"max_iters"},
			framework: &framework{
				program: func(expt.JobSpec) *lang.Program { return protocols.LeaderElectionExact() },
				done:    func(e *frame.Executor, _ int) bool { return e.CountVar("L") == 1 && e.CountVar("R") == 1 },
				report:  reportLeaders,
			},
		},
		{
			Name:        "majority",
			Description: "Majority (§3.2): w.h.p. exact majority for any gap ≥ 1",
			Kind:        "framework",
			Params:      []string{"gap", "max_iters"},
			framework: &framework{
				program: func(expt.JobSpec) *lang.Program { return protocols.Majority(2) },
				inputs:  gapInputs(false),
				done: func(e *frame.Executor, n int) bool {
					y := e.CountVar("YA")
					return (y == 0 || y == n) && e.Iterations >= 3
				},
				report: reportYA,
			},
		},
		{
			Name:        "majorityexact",
			Description: "MajorityExact (§6.2): always-correct exact majority",
			Kind:        "framework",
			Params:      []string{"gap", "max_iters"},
			framework: &framework{
				program: func(expt.JobSpec) *lang.Program { return protocols.MajorityExact(2) },
				inputs:  gapInputs(true),
				done: func(e *frame.Executor, _ int) bool {
					return (e.CountVar("At") == 0 || e.CountVar("Bt") == 0) && e.Iterations >= 3
				},
				report: reportYA,
			},
		},
		{
			Name:        "plurality",
			Description: "Plurality consensus (§1.1): l-colour plurality with O(l²) states",
			Kind:        "framework",
			Params:      []string{"colours", "max_iters"},
			check: func(spec *expt.JobSpec) error {
				if spec.Colours == 0 {
					spec.Colours = defaultColours
				}
				if spec.Colours < 2 {
					return fmt.Errorf("colours must be ≥ 2 (got %d)", spec.Colours)
				}
				if spec.N < (spec.Colours+1)*spec.Colours {
					return fmt.Errorf("n too small for %d colours (need at least %d agents)", spec.Colours, (spec.Colours+1)*spec.Colours)
				}
				return nil
			},
			framework: &framework{
				program: func(spec expt.JobSpec) *lang.Program { return protocols.Plurality(spec.Colours, 2) },
				inputs:  pluralityInputs,
				done:    func(e *frame.Executor, n int) bool { return e.CountVar("W1") == n },
				report:  reportEach,
			},
		},
		{
			Name:        "approxmajority",
			Description: "3-state approximate majority [AAE08a] (§1.2 / E11 baseline)",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(int) uint64 { return baseline.NewApproxMajority().Rules().Space.NumStates() },
			// AAE08a: O(log n) rounds w.h.p.
			ExpectedRounds:   func(n float64) float64 { return 8 * math.Log(n) },
			defaultMaxRounds: 1e6,
			counted: &counted{
				build: func(spec expt.JobSpec, _ *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					am := baseline.NewApproxMajority()
					sA := am.A.Set(bitmask.State{}, true)
					sB := am.B.Set(bitmask.State{}, true)
					nA, nB := splitGap(spec.N, spec.Gap)
					return am.Rules(), map[bitmask.State]int64{sA: nA, sB: nB},
						[]tracked{{"A", bitmask.Is(am.A)}, {"B", bitmask.Is(am.B)}}
				},
				done: func(c []expt.Counter, _ int64) bool { return c[0].Count() == 0 || c[1].Count() == 0 },
			},
		},
		{
			Name:        "exactmajority",
			Description: "4-state exact majority [DV12], Θ(n log n) rounds (the E11 load-test workload)",
			Kind:        "counted",
			Params:      []string{"gap", "max_rounds"},
			States:      func(int) uint64 { return baseline.NewExactMajority4().Rules().Space.NumStates() },
			// DV12 4-state exact majority: Θ(n·log n) rounds at gap 1.
			ExpectedRounds:   func(n float64) float64 { return n * math.Log(n) },
			defaultMaxRounds: 1e9,
			counted: &counted{
				build: func(spec expt.JobSpec, _ *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					em := baseline.NewExactMajority4()
					emA := em.Strong.Set(em.IsA.Set(bitmask.State{}, true), true)
					emB := em.Strong.Set(bitmask.State{}, true)
					nA, nB := splitGap(spec.N, spec.Gap)
					return em.Rules(), map[bitmask.State]int64{emA: nA, emB: nB},
						[]tracked{{"A", bitmask.Is(em.IsA)}}
				},
				done: func(c []expt.Counter, n int64) bool {
					a := c[0].Count()
					return a == 0 || a == n
				},
			},
		},
		{
			Name:        "coalescence",
			Description: "folklore coalescence leader election, Θ(n) rounds (E11 baseline)",
			Kind:        "counted",
			Params:      []string{"max_rounds"},
			States:      func(int) uint64 { return baseline.NewCoalescenceLeader().Rules().Space.NumStates() },
			// Folklore coalescence: Θ(n) rounds (the last pair dominates).
			ExpectedRounds:   func(n float64) float64 { return 2 * n },
			defaultMaxRounds: 1e9,
			counted: &counted{
				build: func(spec expt.JobSpec, _ *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					cl := baseline.NewCoalescenceLeader()
					sL := cl.L.Set(bitmask.State{}, true)
					return cl.Rules(), map[bitmask.State]int64{sL: int64(spec.N)},
						[]tracked{{"L", bitmask.Is(cl.L)}}
				},
				done: leaderDone,
			},
		},
		{
			Name:             "gsexactmajority",
			Description:      "cancelling–doubling exact majority [arXiv:2011.07392]: always correct at any gap, O(log n) states",
			Kind:             "counted",
			Params:           []string{"gap", "max_rounds"},
			States:           func(n int) uint64 { return uint64(protocols.NewCDMajority(n).States()) },
			ExpectedRounds:   tokenMajorityRounds,
			defaultMaxRounds: 1e6,
			check:            defaultGapOne,
			counted: &counted{
				build: func(spec expt.JobSpec, _ *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					m := protocols.NewCDMajority(spec.N)
					nA, nB := splitGap(spec.N, spec.Gap)
					return m.Rules(), m.InitCounts(nA, nB), tokenTracks(m.Tok, m.OpA, m.Out)
				},
				done: majorityDone,
			},
		},
		{
			Name:             "aagmajority",
			Description:      "phase-ratcheted exact majority [arXiv:1704.04947]: space-optimal always-correct majority",
			Kind:             "counted",
			Params:           []string{"gap", "max_rounds"},
			States:           func(n int) uint64 { return uint64(protocols.NewPRMajority(n).States()) },
			ExpectedRounds:   tokenMajorityRounds,
			defaultMaxRounds: 1e6,
			check:            defaultGapOne,
			counted: &counted{
				build: func(spec expt.JobSpec, _ *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					m := protocols.NewPRMajority(spec.N)
					nA, nB := splitGap(spec.N, spec.Gap)
					return m.Rules(), m.InitCounts(nA, nB), tokenTracks(m.Tok, m.OpA, m.Out)
				},
				done: majorityDone,
			},
		},
		{
			Name:        "gs18leader",
			Description: "junta-clocked leader election [arXiv:1802.06867]: polylog-time w.h.p., phase-clock driven elimination",
			Kind:        "counted",
			Params:      []string{"max_rounds"},
			States:      func(n int) uint64 { return uint64(protocols.NewGS18Leader(n).States()) },
			// Its live species count grows with n, which makes the counted
			// kernels' per-firing cost degenerate: pin the dense kernel.
			Hints: expt.RunnerHints{StateRich: true},
			// GS18 junta-clocked election: polylog, near-flat in n (measured
			// means 2.7k–3.8k rounds across n = 512…8192 — ~70·ln² n).
			ExpectedRounds: func(n float64) float64 {
				ln := math.Log(n)
				return 70 * ln * ln
			},
			defaultMaxRounds: 1e5,
			check: func(spec *expt.JobSpec) error {
				if spec.N < 16 {
					return fmt.Errorf("gs18leader needs n ≥ 16 (got %d): the junta construction degenerates below that", spec.N)
				}
				if spec.N > 1<<20 {
					return fmt.Errorf("gs18leader caps n at %d (got %d): the state-rich space pins the dense kernel, which holds every agent in memory", 1<<20, spec.N)
				}
				return nil
			},
			counted: &counted{
				build: func(spec expt.JobSpec, rng *engine.RNG) (*rules.Ruleset, map[bitmask.State]int64, []tracked) {
					g := protocols.NewGS18Leader(spec.N)
					// InitCounts draws the oscillator species from rng.
					return g.Rules(), g.InitCounts(spec.N, rng), []tracked{{"L", bitmask.Is(g.L)}}
				},
				done: leaderDone,
			},
		},
	}
	for _, p := range list {
		if p.framework != nil {
			p.Replica = p.runFramework
			p.States = p.framework.states
		}
		if p.counted != nil {
			p.Replica = p.runCounted
		}
	}
	return list
}

// defaultGapOne gives the always-correct majorities gap 1 by default:
// exactness holds for any non-zero margin, and a dead tie has no majority
// to report, so default to the adversarial minimum rather than accept an
// unanswerable input.
func defaultGapOne(spec *expt.JobSpec) error {
	if spec.Gap == 0 {
		spec.Gap = 1
	}
	return nil
}
