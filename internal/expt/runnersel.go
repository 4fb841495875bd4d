package expt

import (
	"fmt"
	"math"
	"sort"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/obs"
	"popkit/internal/rules"
)

// Runner selection: the engine's two exact kernels run three tiers with
// different capability/cost envelopes, and each experiment should get the
// fastest one that is admissible for its (protocol, n) point.
// EXPERIMENTS.md tabulates their capabilities; the measured
// per-interaction costs come from the committed kernel benchmark
// results/BENCH_kernel.json (E11 exact-majority workload, see
// BenchmarkBatchStep/BenchmarkAggregateStep).

// RunnerKind names one of the kernel tiers.
type RunnerKind int

const (
	// RunnerDense is engine.Runner: one explicit state per agent, one
	// scheduler activation per Step. The only runner that supports ordered
	// (first-match) rule groups, and the fastest at toy sizes where most
	// interactions fire.
	RunnerDense RunnerKind = iota
	// RunnerBatch is engine.CountedRunner taking only leap steps: a
	// species-vector population with geometric leaps over non-firing
	// interactions, forced picks skipping their RNG draws, and per-rule
	// firing counts. Exact in distribution.
	RunnerBatch
	// RunnerAggregate is engine.CountedRunner with its aggregate step
	// enabled at engine.DefaultMinRunFirings: firing-dense stretches
	// advance one collision-free run at a time, resolving the firings of
	// each run through hypergeometric composition and binomial chains
	// instead of one pick per firing. Exact in distribution; the fastest
	// tier once runs are long enough (ℓ ≈ 0.63·√n) to amortize the
	// decomposition.
	RunnerAggregate
)

func (k RunnerKind) String() string {
	switch k {
	case RunnerDense:
		return "dense"
	case RunnerBatch:
		return "batch"
	case RunnerAggregate:
		return "aggregate"
	}
	return "unknown"
}

// denseCrossover is the population size below which per-interaction dense
// stepping beats the counted kernels: the counted per-firing cost (~110 ns)
// only pays off once leaps skip enough quiescent activations, which needs
// room that toy populations don't have. It stays at 1024 although the
// dense step has since become cheaper: moving it changes which kernel runs
// a spec, and so which bytes the spec returns.
const denseCrossover = 1024

// aggregateCrossover is the population size above which the aggregate
// kernel's run decomposition beats per-firing batch stepping. The committed
// kernel table (results/BENCH_kernel.json) has batch at ~6 ns/interaction
// at n = 10^6 degrading to ~10 at 10^8, while aggregate holds under 1 from
// 10^8 up; runs of ℓ ≈ 0.63·√n carry enough firings to amortize the
// decomposition from about 10^7 on.
const aggregateCrossover = 10_000_000

// RunnerHints carries protocol-level facts the ruleset alone cannot express
// and that change which runner is profitable. StateRich marks protocols
// whose reachable species count grows with n (e.g. composed clock/junta
// state, randomized per-agent initialization): the counted kernels' whole
// advantage is species ≪ agents, so such protocols stay on the dense runner
// at every population size.
type RunnerHints struct {
	StateRich bool
}

// SelectRunnerReasonHints picks the fastest admissible runner for
// simulating rs on a population of n agents, and says why: the returned
// string names the hint, capability or crossover that decided the pick,
// and experiment records carry it so a replica's kernel choice can be
// audited from the results file alone. A state-rich hint or ordered
// (first-match) groups rule out the counted kernels entirely; otherwise
// SelectRunnerForSize decides.
func SelectRunnerReasonHints(rs *rules.Ruleset, n int64, h RunnerHints) (RunnerKind, string) {
	if h.StateRich {
		return RunnerDense, "state-rich protocol: species grow with n, counted kernels gain nothing"
	}
	if rs.HasOrderedGroups() {
		return RunnerDense, "ordered rule groups require per-agent matching"
	}
	switch k := SelectRunnerForSize(n); k {
	case RunnerDense:
		return k, fmt.Sprintf("n=%d below counted crossover %d", n, denseCrossover)
	case RunnerAggregate:
		return k, fmt.Sprintf("n=%d at or above aggregate crossover %d", n, aggregateCrossover)
	default:
		return k, fmt.Sprintf("n=%d between counted crossover %d and aggregate crossover %d", n, denseCrossover, aggregateCrossover)
	}
}

// SelectRunnerForSize is the size branch of SelectRunnerReasonHints: the
// runner tier a flat (unordered) rule set over n agents executes on.
// Admission-time cost prediction (internal/qos) prices a job from this tier
// without compiling the ruleset, so the cost model can never drift from
// the real selector.
func SelectRunnerForSize(n int64) RunnerKind {
	if n < denseCrossover {
		return RunnerDense
	}
	if n >= aggregateCrossover {
		return RunnerAggregate
	}
	return RunnerBatch
}

// Counter is the read-only face of a tracker: the count stop conditions
// read.
type Counter interface{ Count() int64 }

// Driver runs one (protocol, population) pair on the kernel
// SelectRunnerReasonHints picked, behind a single tracker-based API. Stop
// conditions must read trackers obtained from Track — that is what lets
// every kernel skip re-evaluating the condition while no tracked count
// moves.
type Driver struct {
	Kind RunnerKind

	// Reason records why SelectRunnerReasonHints picked Kind; experiment
	// records and traces surface it so kernel choices are auditable after
	// the run.
	Reason string

	k engine.Kernel

	trace        *obs.Trace
	traceReplica int
	traceNext    float64
	tracked      []*engine.Tracker
}

// NewDriver builds the driver for proto (and its ruleset proto.Set) over
// the given initial counts, with protocol hints folded into runner
// selection (see RunnerHints).
func NewDriver(proto *engine.Protocol, counts map[bitmask.State]int64, rng *engine.RNG, h RunnerHints) *Driver {
	var n int64
	for _, k := range counts {
		n += k
	}
	kind, reason := SelectRunnerReasonHints(proto.Set, n, h)
	d := &Driver{Kind: kind, Reason: reason}
	switch kind {
	case RunnerDense:
		d.k = engine.NewRunner(proto, denseLayout(counts, n), rng)
	default:
		minRun := math.Inf(1) // the batch tier never takes an aggregate step
		if kind == RunnerAggregate {
			minRun = engine.DefaultMinRunFirings
		}
		d.k = engine.NewCountedRunner(proto, engine.NewCounted(counts), rng, minRun)
	}
	return d
}

// denseLayout lays n agents out in sorted state order (the same (Hi, Lo)
// order engine.NewCounted uses): map iteration order is randomized, and
// which agent indices start in which state changes the dense scheduler's
// trajectory — the layout must be a pure function of counts or the same
// seed stops reproducing the same record.
func denseLayout(counts map[bitmask.State]int64, n int64) *engine.Dense {
	pop := engine.NewDense(int(n))
	states := make([]bitmask.State, 0, len(counts))
	for s := range counts {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Lo < b.Lo
	})
	i := 0
	for _, s := range states {
		for j := int64(0); j < counts[s]; j++ {
			pop.SetAgent(i, s)
			i++
		}
	}
	return pop
}

// Track registers an incremental count of agents matching f.
func (d *Driver) Track(name string, f bitmask.Formula) Counter {
	t := d.k.Track(name, f)
	d.tracked = append(d.tracked, t)
	return t
}

// SetTrace attaches an obs timeline: RunUntil then emits a "count" event —
// every tracked counter's value, labelled with the runner kind — at most
// once per parallel round, and the underlying runner tallies per-rule
// firings into an obs.RuleStats. Tracing reads state the run already
// maintains and draws nothing from the RNG, so trajectories are
// byte-identical with and without it.
func (d *Driver) SetTrace(tr *obs.Trace, replica int) {
	d.trace = tr
	d.traceReplica = replica
	// Announce the selected kernel once per replica so timelines record
	// which runner produced the counts that follow, and why it was chosen.
	tr.Emit(obs.Event{
		Kind: "runner", Replica: replica,
		Name: d.Kind.String(), Reason: d.Reason,
	})
}

// SetStats attaches a per-rule firing tally to the driver's kernel (nil
// detaches).
func (d *Driver) SetStats(s *obs.RuleStats) { d.k.SetStats(s) }

// maybeTrace emits one "count" timeline event, rate-limited to one per
// parallel round so long quiescent leaps don't flood the buffer.
func (d *Driver) maybeTrace() {
	if d.trace == nil {
		return
	}
	r := d.Rounds()
	if r < d.traceNext {
		return
	}
	d.traceNext = math.Floor(r) + 1
	var counts map[string]int64
	if len(d.tracked) > 0 {
		counts = make(map[string]int64, len(d.tracked))
		for _, t := range d.tracked {
			counts[t.Name] = t.Count()
		}
	}
	d.trace.Emit(obs.Event{
		Kind: "count", Replica: d.traceReplica, Rounds: r,
		Name: d.Kind.String(), Value: int64(d.Interactions()), Counts: counts,
	})
}

// RunUntil advances until cond holds or maxRounds elapses, returning the
// parallel time consumed and whether cond was met. With a trace attached,
// "count" events are emitted when cond is evaluated, so like cond they
// follow tracked-count changes.
func (d *Driver) RunUntil(cond func() bool, maxRounds float64) (rounds float64, ok bool) {
	probe := cond
	if d.trace != nil {
		probe = func() bool {
			d.maybeTrace()
			return cond()
		}
	}
	return d.k.RunTracked(probe, maxRounds)
}

// Rounds returns total elapsed parallel time.
func (d *Driver) Rounds() float64 { return d.k.Rounds() }

// Interactions returns the number of scheduler activations simulated,
// including leapt quiescent ones.
func (d *Driver) Interactions() uint64 { return d.k.InteractionCount() }

// HistogramInto snapshots the population into dst (cleared first).
func (d *Driver) HistogramInto(dst map[bitmask.State]int64) { d.k.HistogramInto(dst) }
