// Package popkit is a library for building, simulating, and measuring
// population protocols, reproducing "Population Protocols Are Fast"
// (Kosowski & Uznański, PODC 2018). It provides:
//
//   - the paper's imperative programming framework: parse or build
//     sequential programs (threads, repeat loops, "execute ruleset"
//     leaves, "if exists" branching, assignments) and run them under the
//     framework's good-iteration semantics (Theorem 2.4);
//   - a real compiler (§4, §5.4) lowering programs to flat population-
//     protocol rule sets gated by a self-organizing hierarchy of phase
//     clocks (§5), executable under the plain uniform-random scheduler;
//   - the paper's protocols — LeaderElection, Majority, their always-
//     correct variants, plurality consensus, and semi-linear predicate
//     computation — plus the prior-work baselines they are compared to;
//   - simulation engines (per-agent and species-count based, with
//     geometric leaping over quiescent stretches) and the experiment
//     harness regenerating every quantitative claim (EXPERIMENTS.md).
//
// Quick start:
//
//	prog := popkit.LeaderElection()
//	run, _ := popkit.NewRun(prog, 4096, 1)
//	iters, _ := run.RunUntil(func(r *popkit.Run) bool {
//	    return r.CountVar("L") == 1
//	}, 200)
//	fmt.Printf("unique leader after %d iterations (%.0f rounds)\n",
//	    iters, run.Rounds())
package popkit

import (
	"popkit/internal/bitmask"
	"popkit/internal/compile"
	"popkit/internal/engine"
	"popkit/internal/expt"
	"popkit/internal/frame"
	"popkit/internal/lang"
	"popkit/internal/osc"
	"popkit/internal/protocols"
	"popkit/internal/semilinear"
)

// Program is a protocol written in the paper's imperative language.
type Program = lang.Program

// ParseProgram parses a program in the indentation-based syntax of the
// paper's pseudocode (see internal/lang for the grammar).
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// MustParseProgram is ParseProgram for statically-known sources.
func MustParseProgram(src string) *Program { return lang.MustParse(src) }

// The paper's example protocols.
var (
	// LeaderElection is the w.h.p. protocol of §3.1 (output variable L).
	LeaderElection = protocols.LeaderElection
	// LeaderElectionExact is the always-correct variant of §6.1.
	LeaderElectionExact = protocols.LeaderElectionExact
)

// Majority returns the §3.2 w.h.p. majority program with loop constant c
// (inputs A, B; output YA).
func Majority(c int) *Program { return protocols.Majority(c) }

// MajorityExact returns the always-correct §6.2 variant.
func MajorityExact(c int) *Program { return protocols.MajorityExact(c) }

// Plurality returns the l-colour plurality-consensus program (§1.1).
func Plurality(l, c int) *Program { return protocols.Plurality(l, c) }

// Run executes a program under the framework's good-iteration semantics
// (Theorem 2.4): each leaf runs ≥ c·ln n rounds of a fair scheduler, and
// parallel time is charged accordingly. It is the fastest way to measure
// the paper's convergence bounds; use Compile for the real flat protocol.
type Run = frame.Executor

// Faults configures adversarial executions (stops, partial assignments).
type Faults = frame.Faults

// NewRun builds a framework run of the program over n agents.
func NewRun(p *Program, n int, seed uint64) (*Run, error) {
	return frame.New(p, n, seed)
}

// Compiled is a program lowered to a flat population protocol: the clock
// hierarchy, the X-control process, and the Π_τ-gated program rules.
type Compiled = compile.Compiled

// CompileOptions configure compilation.
type CompileOptions = compile.Options

// X-control choices for CompileOptions.Control.
const (
	XTwoMeet    = compile.XTwoMeet
	XCascade    = compile.XCascade
	XPreReduced = compile.XPreReduced
)

// CompileProgram lowers a program to a flat rule set (§4, §5.4).
func CompileProgram(p *Program, opt CompileOptions) (*Compiled, error) {
	return compile.Compile(p, opt)
}

// NewEngine compiles a raw ruleset for simulation under the uniform-random
// pairwise scheduler. Most users want NewRun or CompileProgram instead;
// this entry point serves custom rule sets built with the internal
// packages' types exposed through Compiled.Rules.
var NewEngine = engine.CompileProtocol

// RNG is the deterministic generator used across all simulations.
type RNG = engine.RNG

// NewRNG seeds a generator; identical seeds reproduce identical runs.
var NewRNG = engine.NewRNG

// Scheduler drives a compiled rule set over a per-agent population under
// the asynchronous uniform-random pairwise scheduler (engine.Runner).
type Scheduler = engine.Runner

// NewScheduler assembles a scheduler for a compiled protocol.
var NewScheduler = engine.NewRunner

// Predicate combinators for semi-linear predicate computation (§6.3).
type (
	// Predicate is a boolean function of input colour counts.
	Predicate = semilinear.Predicate
	// Threshold is Σ Coef[i]·x_i ≥ C.
	Threshold = semilinear.Threshold
	// Mod is Σ Coef[i]·x_i ≡ R (mod M).
	Mod = semilinear.Mod
	// SemilinearExact is the always-correct, fast-w.h.p. computation.
	SemilinearExact = semilinear.Exact
)

// NewSemilinearExact builds the §6.3 protocol for the predicate over n
// agents with the given colouring (colour(i) ∈ {0…arity−1}, or −1).
func NewSemilinearExact(pred Predicate, n int, colour func(i int) int, seed uint64) *SemilinearExact {
	return semilinear.NewExact(pred, n, colour, seed)
}

// Experiment is one entry of the reproduction suite (see EXPERIMENTS.md).
type Experiment = expt.Experiment

// ExperimentConfig scales the reproduction experiments.
type ExperimentConfig = expt.Config

// Experiments returns the registered reproduction experiments E1–E12 and
// figure generators F1–F3.
func Experiments() []Experiment { return expt.All() }

// LookupExperiment finds an experiment by ID (e.g. "E3").
func LookupExperiment(id string) (Experiment, bool) { return expt.Lookup(id) }

// OscSim is a ready-to-run simulation of the paper's rock–paper–scissors
// oscillator (§5.2) — the self-organizing chemistry underlying the phase
// clocks, directly interpretable as a fixed-volume chemical reaction
// network. Drive it with Sim.RunRounds and observe species counts.
type OscSim struct {
	// Osc gives access to species counts and dominance queries.
	Osc *osc.Oscillator
	// Sim is the underlying scheduler.
	Sim *Scheduler
	// Probe records dominance events for period measurements.
	Probe *osc.Probe
}

// NewOscillatorSim builds an oscillator over n agents with nx control
// (source) agents; the Theorem 5.1 regime is 1 ≤ nx ≤ n^(1−ε).
func NewOscillatorSim(n, nx int, seed uint64) *OscSim {
	sp := bitmask.NewSpace()
	x := sp.Bool("X")
	o := osc.New(sp, "O", x, osc.DefaultParams())
	proto := engine.CompileProtocol(o.Ruleset())
	rng := engine.NewRNG(seed)
	pop := engine.NewDenseInit(n, func(i int) bitmask.State {
		var s bitmask.State
		if i < nx {
			s = x.Set(s, true)
		}
		return o.InitState(s, uint64(rng.Intn(3)), false)
	})
	return &OscSim{Osc: o, Sim: engine.NewRunner(proto, pop, rng), Probe: osc.NewProbe(o)}
}

// Step advances the simulation by the given number of parallel rounds and
// feeds the probe once.
func (s *OscSim) Step(rounds float64) {
	s.Sim.RunRounds(rounds)
	s.Probe.Observe(s.Sim)
}

// Species returns the current species counts [A0, A1, A2].
func (s *OscSim) Species() [3]int { return s.Osc.SpeciesCounts(s.Sim.Pop) }

// Boolean combinators over predicates (the semi-linear class is the
// boolean closure of thresholds and mods). NewSemilinearExact runs a
// combination through its slow path only, with no fast blackbox.
type (
	// AndPredicate is the conjunction of predicates.
	AndPredicate = semilinear.AndPred
	// OrPredicate is the disjunction of predicates.
	OrPredicate = semilinear.OrPred
	// NotPredicate is the negation of a predicate.
	NotPredicate = semilinear.NotPred
)

// Population snapshot I/O: checkpoint long simulations and archive
// configurations (see internal/engine's snapshot format).
var (
	// ReadDensePopulation restores a per-agent population snapshot.
	ReadDensePopulation = engine.ReadDense
	// ReadCountedPopulation restores a species-table snapshot.
	ReadCountedPopulation = engine.ReadCounted
)
