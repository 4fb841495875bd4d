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

// Runner selection: the engine offers three exact schedulers with different
// capability/cost envelopes, and each experiment should get the fastest one
// that is admissible for its (protocol, n) point. The matrix below is the
// authoritative capability table (mirrored in EXPERIMENTS.md); the measured
// per-interaction costs come from the committed kernel benchmark
// results/BENCH_kernel.json (E11 exact-majority workload, see
// BenchmarkCountStep/BenchmarkBatchStep).

// RunnerKind names one of the engine's schedulers.
type RunnerKind int

const (
	// RunnerDense is engine.Runner: one explicit state per agent, one
	// scheduler activation per Step. The only runner that supports ordered
	// (first-match) rule groups, and the fastest at toy sizes where most
	// interactions fire.
	RunnerDense RunnerKind = iota
	// RunnerCounted is engine.CountRunner: species-vector population with
	// geometric leaps. Byte-identical RNG streams with the historical
	// scanning kernel, so archived seeds replay exactly.
	RunnerCounted
	// RunnerBatch is engine.BatchRunner: the counted chain with forced
	// picks skipping their RNG draws and per-rule firing counts. Exact in
	// distribution but not stream-compatible.
	RunnerBatch
	// RunnerAggregate is engine.AggregateRunner: the counted chain advanced
	// one collision-free run at a time, resolving the firings of each run
	// through hypergeometric composition and binomial chains instead of one
	// pick per firing. Exact in distribution but not stream-compatible; the
	// fastest kernel once runs are long enough (ℓ ≈ 0.63·√n) to amortize
	// the decomposition.
	RunnerAggregate
)

func (k RunnerKind) String() string {
	switch k {
	case RunnerDense:
		return "dense"
	case RunnerCounted:
		return "counted"
	case RunnerBatch:
		return "batch"
	case RunnerAggregate:
		return "aggregate"
	}
	return "unknown"
}

// RunnerCaps is one row of the capability matrix.
type RunnerCaps struct {
	Kind            RunnerKind
	OrderedGroups   bool // supports first-match rule groups
	LeapsQuiescence bool // O(1) geometric skips over non-firing stretches
	HugePopulations bool // counts-only state: n up to ~1e9
	StreamCompat    bool // reproduces the historical per-interaction RNG stream
	// AggregatesFirings marks kernels that resolve whole collision-free
	// runs of firings per step (multinomial run-length leaping) instead of
	// one firing at a time.
	AggregatesFirings bool
	// NsPerFiring is the measured cost of one rule firing on the E11
	// exact-majority workload at n = 10^6 (dense: cost per interaction —
	// it cannot leap, so quiescent activations cost the same — measured
	// on 2 shared vCPUs with the species-interned step; the counted rows
	// come from results/BENCH_kernel.json, one 2.1 GHz core).
	NsPerFiring float64
}

// CapabilityMatrix returns the runner capability table.
func CapabilityMatrix() []RunnerCaps {
	return []RunnerCaps{
		{Kind: RunnerDense, OrderedGroups: true, NsPerFiring: 45},
		{Kind: RunnerCounted, LeapsQuiescence: true, HugePopulations: true, StreamCompat: true, NsPerFiring: 115},
		{Kind: RunnerBatch, LeapsQuiescence: true, HugePopulations: true, NsPerFiring: 107},
		{Kind: RunnerAggregate, LeapsQuiescence: true, HugePopulations: true, AggregatesFirings: true, NsPerFiring: 111},
	}
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

// SelectRunner picks the fastest admissible runner for simulating rs on a
// population of n agents.
func SelectRunner(rs *rules.Ruleset, n int64) RunnerKind {
	k, _ := SelectRunnerReason(rs, n)
	return k
}

// SelectRunnerReason is SelectRunner surfacing *why*: the returned string
// names the capability or crossover that decided the pick, and experiment
// records carry it so a replica's kernel choice can be audited from the
// results file alone. Ordered (first-match) groups rule out the counted
// kernels entirely; otherwise crossover sizes decide between dense
// stepping, per-firing batching, and aggregate run decomposition.
func SelectRunnerReason(rs *rules.Ruleset, n int64) (RunnerKind, string) {
	if rs.HasOrderedGroups() {
		return RunnerDense, "ordered rule groups require per-agent matching"
	}
	if n < denseCrossover {
		return RunnerDense, fmt.Sprintf("n=%d below counted crossover %d", n, denseCrossover)
	}
	if n >= aggregateCrossover {
		return RunnerAggregate, fmt.Sprintf("n=%d at or above aggregate crossover %d", n, aggregateCrossover)
	}
	return RunnerBatch, fmt.Sprintf("n=%d between counted crossover %d and aggregate crossover %d", n, denseCrossover, aggregateCrossover)
}

// RunnerHints carries protocol-level facts the ruleset alone cannot express
// and that change which runner is profitable. StateRich marks protocols
// whose reachable species count grows with n (e.g. composed clock/junta
// state, randomized per-agent initialization): the counted kernels' whole
// advantage is species ≪ agents, so such protocols stay on the dense runner
// at every population size.
type RunnerHints struct {
	StateRich bool
}

// SelectRunnerReasonHints is SelectRunnerReason with protocol hints applied
// before the size crossovers.
func SelectRunnerReasonHints(rs *rules.Ruleset, n int64, h RunnerHints) (RunnerKind, string) {
	if h.StateRich {
		return RunnerDense, "state-rich protocol: species grow with n, counted kernels gain nothing"
	}
	return SelectRunnerReason(rs, n)
}

// SelectRunnerForSize is the size-only projection of SelectRunnerReason for
// flat (unordered) rule sets: the runner tier a counted protocol over n
// agents will execute on. Admission-time cost prediction (internal/qos)
// prices a job from this tier without compiling the ruleset; keeping the
// projection next to the crossover constants means the cost model can never
// drift from the real selector.
func SelectRunnerForSize(n int64) RunnerKind {
	if n < denseCrossover {
		return RunnerDense
	}
	if n >= aggregateCrossover {
		return RunnerAggregate
	}
	return RunnerBatch
}

// Counter is the common face of the engines' incremental trackers.
type Counter interface{ Count() int64 }

type denseCounter struct{ t *engine.Tracker }

func (c denseCounter) Count() int64 { return int64(c.t.Count()) }

// Driver runs one (protocol, population) pair on whichever runner
// SelectRunner picked, behind a single tracker-based API. Stop conditions
// must read trackers obtained from Track — that is what lets every kernel,
// dense included, skip re-evaluating the condition while no tracked count
// moves.
type Driver struct {
	Kind RunnerKind

	// Reason records why SelectRunnerReason picked Kind; experiment records
	// and traces surface it so kernel choices are auditable after the run.
	Reason string

	counted *engine.Counted
	dense   *engine.Dense
	cr      *engine.CountRunner
	br      *engine.BatchRunner
	ar      *engine.AggregateRunner
	dr      *engine.Runner

	trace        *obs.Trace
	traceReplica int
	traceNext    float64
	tracked      []trackEntry
}

// trackEntry remembers a registered tracker so the trace can report every
// tracked count on one timeline event.
type trackEntry struct {
	name string
	c    Counter
}

// NewDriver builds the driver for rs/proto over the given initial counts.
func NewDriver(rs *rules.Ruleset, proto *engine.Protocol, counts map[bitmask.State]int64, rng *engine.RNG) *Driver {
	return NewDriverWithHints(rs, proto, counts, rng, RunnerHints{})
}

// NewDriverWithHints is NewDriver with protocol hints folded into runner
// selection (see RunnerHints).
func NewDriverWithHints(rs *rules.Ruleset, proto *engine.Protocol, counts map[bitmask.State]int64, rng *engine.RNG, h RunnerHints) *Driver {
	var n int64
	for _, k := range counts {
		n += k
	}
	kind, reason := SelectRunnerReasonHints(rs, n, h)
	d := &Driver{Kind: kind, Reason: reason}
	switch d.Kind {
	case RunnerDense:
		d.dense = engine.NewDense(int(n))
		// Lay agents out in sorted state order (the same (Hi, Lo) order
		// engine.NewCounted uses): map iteration order is randomized, and
		// which agent indices start in which state changes the dense
		// scheduler's trajectory — the layout must be a pure function of
		// counts or the same seed stops reproducing the same record.
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
				d.dense.SetAgent(i, s)
				i++
			}
		}
		d.dr = engine.NewRunner(proto, d.dense, rng)
	case RunnerCounted:
		d.counted = engine.NewCounted(counts)
		d.cr = engine.NewCountRunner(proto, d.counted, rng)
	case RunnerAggregate:
		d.counted = engine.NewCounted(counts)
		d.ar = engine.NewAggregateRunner(proto, d.counted, rng)
	default:
		d.counted = engine.NewCounted(counts)
		d.br = engine.NewBatchRunner(proto, d.counted, rng)
	}
	return d
}

// Track registers an incremental count of agents matching f.
func (d *Driver) Track(name string, f bitmask.Formula) Counter {
	var c Counter
	switch d.Kind {
	case RunnerDense:
		c = denseCounter{d.dr.Track(name, f)}
	case RunnerCounted:
		c = d.cr.Track(name, f)
	case RunnerAggregate:
		c = d.ar.Track(name, f)
	default:
		c = d.br.Track(name, f)
	}
	d.tracked = append(d.tracked, trackEntry{name: name, c: c})
	return c
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

// SetStats attaches a per-rule firing tally to whichever runner the driver
// selected (nil detaches).
func (d *Driver) SetStats(s *obs.RuleStats) {
	switch d.Kind {
	case RunnerDense:
		d.dr.Stats = s
	case RunnerCounted:
		d.cr.Stats = s
	case RunnerAggregate:
		d.ar.Stats = s
	default:
		d.br.Stats = s
	}
}

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
		for _, te := range d.tracked {
			counts[te.name] = te.c.Count()
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
	switch d.Kind {
	case RunnerDense:
		return d.dr.RunTracked(probe, maxRounds)
	case RunnerCounted:
		return d.cr.RunUntil(func(*engine.CountRunner) bool { return probe() }, maxRounds)
	case RunnerAggregate:
		return d.ar.RunUntil(func(*engine.AggregateRunner) bool { return probe() }, maxRounds)
	default:
		return d.br.RunUntil(func(*engine.BatchRunner) bool { return probe() }, maxRounds)
	}
}

// Rounds returns total elapsed parallel time.
func (d *Driver) Rounds() float64 {
	switch d.Kind {
	case RunnerDense:
		return d.dr.Rounds()
	case RunnerCounted:
		return d.cr.Rounds()
	case RunnerAggregate:
		return d.ar.Rounds()
	default:
		return d.br.Rounds()
	}
}

// Interactions returns the number of scheduler activations simulated,
// including leapt quiescent ones.
func (d *Driver) Interactions() uint64 {
	switch d.Kind {
	case RunnerDense:
		return d.dr.Interactions
	case RunnerCounted:
		return d.cr.Interactions
	case RunnerAggregate:
		return d.ar.Interactions
	default:
		return d.br.Interactions
	}
}

// HistogramInto snapshots the population into dst (cleared first).
func (d *Driver) HistogramInto(dst map[bitmask.State]int64) {
	if d.Kind == RunnerDense {
		d.dense.HistogramInto(dst)
		return
	}
	d.counted.HistogramInto(dst)
}
