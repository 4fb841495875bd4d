// Package frame executes programs of the lang package under the
// good-iteration semantics that Theorem 2.4 promises for compiled
// protocols: in a good iteration every agent follows the same execution
// path; each "execute" leaf runs its ruleset under a fair sequential
// scheduler for ≥ c·ln n rounds; assignments and "if exists" evaluations
// reach their expected outcomes (Definition 2.3).
//
// The executor charges the same parallel-time costs as the compiled
// protocol — c·ln n rounds per leaf, with assignments costing two leaves
// and branch evaluations two leaves (the Fig. 1 and Fig. 2 expansions) —
// so convergence times measured here reproduce the paper's round bounds.
// Forever-threads ("execute ruleset:") run composed with every foreground
// leaf and keep running during bookkeeping leaves, mirroring the §1.3
// thread composition. Fault injection (stopping mid-iteration, partial
// assignments) lets tests exercise the guaranteed-behavior property
// (Definition 2.1) that the always-correct protocols rely on.
package frame

import (
	"fmt"
	"math"

	"popkit/internal/bitmask"
	"popkit/internal/engine"
	"popkit/internal/lang"
	"popkit/internal/obs"
	"popkit/internal/rules"
)

// Faults configures adversarial behavior for robustness tests. The zero
// value is a fault-free executor.
type Faults struct {
	// StopAfterLeaves stops executing foreground statements after this
	// many leaves (0 = never): the paper's "it may slow (or stop) without
	// warning". Background threads keep running.
	StopAfterLeaves int
	// PartialAssignProb is the per-agent probability that an assignment
	// leaf skips the agent, violating the good-iteration promise the way
	// a marginal iteration would.
	PartialAssignProb float64
	// SkipIterationProb is the probability that an entire iteration runs
	// "unsynchronized": foreground leaves are skipped while background
	// threads run, modeling the uncontrolled prefix before good
	// iterations start.
	SkipIterationProb float64
}

// Executor runs one program instance over a population.
type Executor struct {
	Prog  *lang.Program
	Space *bitmask.Space
	Pop   *engine.Dense
	RNG   *engine.RNG
	// C is the loop constant used throughout (the program's MaxC unless
	// overridden before the first iteration).
	C int
	// Rounds is the accumulated parallel time under the framework cost
	// model.
	Rounds float64
	// Iterations counts completed outer iterations.
	Iterations int
	Faults     Faults

	// Trace, when non-nil, receives "leaf" and "iteration" events as the
	// program runs (obs timeline records). Emission happens outside every
	// RNG draw, so attaching a trace never changes the trajectory.
	// TraceReplica labels the events when several replicas share a trace.
	Trace        *obs.Trace
	TraceReplica int

	logN       float64
	background *rules.Ruleset   // merged Forever threads, nil if none
	bgRunner   *engine.Runner   // runs the background alone, nil if none
	repeats    []compiledThread // one per repeat thread
	leafCount  int              // foreground leaves executed (for faults)
	stopped    bool
}

type compiledThread struct {
	name string
	body []compiledStmt
}

type stmtKind int

const (
	kindExecute stmtKind = iota
	kindRepeatLog
	kindIf
	kindAssignFormula
	kindAssignRand
	kindAssignConst
)

type compiledStmt struct {
	kind stmtKind
	c    int
	// runner runs the leaf rules ∘ background (kindExecute); every
	// execution of the leaf reuses it, so its pair memo stays warm.
	runner *engine.Runner
	cond   bitmask.Guard  // kindIf / kindAssignFormula
	v      bitmask.Var    // assignment target
	onVal  bool           // kindAssignConst
	body   []compiledStmt // kindRepeatLog / kindIf then-branch
	other  []compiledStmt // kindIf else-branch
}

// New builds an executor for the program over a fresh population of n
// agents, all initialized to the program's declared initial values. Use
// SetInput to overlay per-agent input variables before running.
func New(prog *lang.Program, n int, seed uint64) (*Executor, error) {
	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	sp, err := prog.BuildSpace()
	if err != nil {
		return nil, err
	}
	init := prog.InitialState(sp)
	e := &Executor{
		Prog:  prog,
		Space: sp,
		Pop:   engine.NewDenseInit(n, func(int) bitmask.State { return init }),
		RNG:   engine.NewRNG(seed),
		C:     prog.MaxC(),
		logN:  math.Log(float64(n)),
	}

	// Merge Forever threads into the background ruleset.
	var bgParts []*rules.Ruleset
	for _, th := range prog.Threads {
		if isForeverThread(th) {
			for _, st := range th.Body {
				ex := st.(lang.Execute)
				rs, err := rules.Parse(sp, joinLines(ex.Rules))
				if err != nil {
					return nil, fmt.Errorf("frame: thread %s: %w", th.Name, err)
				}
				bgParts = append(bgParts, rs)
			}
		}
	}
	if len(bgParts) > 0 {
		e.background = rules.ComposeThreads(bgParts...)
		e.bgRunner = engine.NewRunner(engine.CompileProtocol(e.background), e.Pop, e.RNG)
	}

	// Compile the repeat threads.
	for _, th := range prog.Threads {
		if isForeverThread(th) {
			continue
		}
		body := th.Body
		if len(body) == 1 {
			if rep, ok := body[0].(lang.Repeat); ok {
				body = rep.Body
			}
		}
		cb, err := e.compileBlock(body)
		if err != nil {
			return nil, fmt.Errorf("frame: thread %s: %w", th.Name, err)
		}
		e.repeats = append(e.repeats, compiledThread{name: th.Name, body: cb})
	}
	if len(e.repeats) == 0 {
		return nil, fmt.Errorf("frame: program has no repeat thread")
	}
	return e, nil
}

func isForeverThread(th lang.Thread) bool {
	if len(th.Body) == 0 {
		return false
	}
	for _, st := range th.Body {
		ex, ok := st.(lang.Execute)
		if !ok || !ex.Forever {
			return false
		}
	}
	return true
}

func (e *Executor) compileBlock(b lang.Block) ([]compiledStmt, error) {
	out := make([]compiledStmt, 0, len(b))
	for _, s := range b {
		cs, err := e.compileStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, cs)
	}
	return out, nil
}

func (e *Executor) compileStmt(s lang.Stmt) (compiledStmt, error) {
	switch st := s.(type) {
	case lang.Execute:
		rs, err := rules.Parse(e.Space, joinLines(st.Rules))
		if err != nil {
			return compiledStmt{}, err
		}
		full := rs
		if e.background != nil {
			full = rules.ComposeThreads(rs, e.background)
		}
		r := engine.NewRunner(engine.CompileProtocol(full), e.Pop, e.RNG)
		return compiledStmt{kind: kindExecute, c: st.C, runner: r}, nil
	case lang.RepeatLog:
		body, err := e.compileBlock(st.Body)
		if err != nil {
			return compiledStmt{}, err
		}
		return compiledStmt{kind: kindRepeatLog, c: st.C, body: body}, nil
	case lang.IfExists:
		f, err := rules.ParseFormula(e.Space, st.Cond)
		if err != nil {
			return compiledStmt{}, err
		}
		then, err := e.compileBlock(st.Then)
		if err != nil {
			return compiledStmt{}, err
		}
		els, err := e.compileBlock(st.Else)
		if err != nil {
			return compiledStmt{}, err
		}
		return compiledStmt{kind: kindIf, cond: bitmask.Compile(f), body: then, other: els}, nil
	case lang.Assign:
		v, ok := e.Space.LookupVar(st.Var)
		if !ok {
			return compiledStmt{}, fmt.Errorf("unknown variable %s", st.Var)
		}
		switch st.Expr {
		case lang.RandExpr:
			return compiledStmt{kind: kindAssignRand, v: v}, nil
		case lang.OnExpr:
			return compiledStmt{kind: kindAssignConst, v: v, onVal: true}, nil
		case lang.OffExpr:
			return compiledStmt{kind: kindAssignConst, v: v, onVal: false}, nil
		default:
			f, err := rules.ParseFormula(e.Space, st.Expr)
			if err != nil {
				return compiledStmt{}, err
			}
			return compiledStmt{kind: kindAssignFormula, v: v, cond: bitmask.Compile(f)}, nil
		}
	case lang.Repeat:
		return compiledStmt{}, fmt.Errorf("nested unbounded repeat")
	}
	return compiledStmt{}, fmt.Errorf("unsupported statement %T", s)
}

// SetInput overlays per-agent input state; call before the first iteration.
func (e *Executor) SetInput(fn func(i int, s bitmask.State) bitmask.State) {
	e.Pop.SetAll(fn)
}

// Count returns the number of agents satisfying the formula (textual).
func (e *Executor) Count(formula string) int {
	f, err := rules.ParseFormula(e.Space, formula)
	if err != nil {
		panic("frame: " + err.Error())
	}
	return e.Pop.Count(bitmask.Compile(f))
}

// CountVar returns the number of agents with the named variable set.
func (e *Executor) CountVar(name string) int {
	v, ok := e.Space.LookupVar(name)
	if !ok {
		panic("frame: unknown variable " + name)
	}
	return e.Pop.Count(bitmask.Compile(bitmask.Is(v)))
}

// leafRounds is the parallel time charged per leaf.
func (e *Executor) leafRounds() float64 { return float64(e.C) * e.logN }

// chargeLeaf accounts one leaf of parallel time and runs the background
// threads for that long.
func (e *Executor) chargeLeaf(leaves float64) {
	dt := leaves * e.leafRounds()
	e.Rounds += dt
	if e.bgRunner != nil {
		e.bgRunner.RunRounds(dt)
	}
}

// RunIteration executes one iteration of every repeat thread, in order.
func (e *Executor) RunIteration() {
	skip := e.Faults.SkipIterationProb > 0 && e.RNG.Float64() < e.Faults.SkipIterationProb
	for _, th := range e.repeats {
		if skip {
			e.chargeLeaf(float64(countLeaves(th.body)))
			continue
		}
		e.runBlock(th.body)
	}
	e.Iterations++
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Kind: "iteration", Replica: e.TraceReplica,
			Iter: e.Iterations, Leaf: e.leafCount, Rounds: e.Rounds,
		})
	}
}

// RunIterations executes k iterations.
func (e *Executor) RunIterations(k int) {
	for i := 0; i < k; i++ {
		e.RunIteration()
	}
}

// RunUntil executes iterations until the condition holds, up to maxIters.
// It reports the number of iterations run and whether the condition held.
func (e *Executor) RunUntil(cond func(*Executor) bool, maxIters int) (int, bool) {
	for i := 0; i < maxIters; i++ {
		if cond(e) {
			return i, true
		}
		e.RunIteration()
	}
	return maxIters, cond(e)
}

func countLeaves(body []compiledStmt) int {
	total := 0
	for _, s := range body {
		switch s.kind {
		case kindExecute:
			total++
		case kindAssignConst, kindAssignFormula, kindAssignRand:
			total += 2
		case kindIf:
			t := countLeaves(s.body)
			if o := countLeaves(s.other); o > t {
				t = o
			}
			total += 2 + t
		case kindRepeatLog:
			total += countLeaves(s.body) // charged per loop pass at run time
		}
	}
	return total
}

func (e *Executor) runBlock(body []compiledStmt) {
	for i := range body {
		e.runStmt(&body[i])
	}
}

func (e *Executor) runStmt(s *compiledStmt) {
	if e.Faults.StopAfterLeaves > 0 && e.leafCount >= e.Faults.StopAfterLeaves {
		e.stopped = true
		return
	}
	switch s.kind {
	case kindExecute:
		e.leafCount++
		dt := float64(s.c) * e.logN
		e.Rounds += dt
		r := s.runner
		before := r.Interactions
		r.RunRounds(dt)
		if e.Trace != nil {
			e.Trace.Emit(obs.Event{
				Kind: "leaf", Replica: e.TraceReplica, Iter: e.Iterations,
				Leaf: e.leafCount, Rounds: e.Rounds, Name: "execute",
				Value: int64(r.Interactions - before),
			})
		}

	case kindRepeatLog:
		times := int(math.Ceil(float64(s.c) * e.logN))
		for t := 0; t < times && !e.stopped; t++ {
			e.runBlock(s.body)
		}

	case kindIf:
		// Condition evaluation costs two leaves (Fig. 2).
		e.leafCount += 2
		e.chargeLeaf(2)
		if e.Pop.Count(s.cond) > 0 {
			e.runBlock(s.body)
		} else {
			e.runBlock(s.other)
		}

	case kindAssignFormula, kindAssignRand, kindAssignConst:
		// Assignments cost two leaves (Fig. 1).
		e.leafCount += 2
		e.chargeLeaf(2)
		e.applyAssign(s)
	}
}

// Labels of an agent in an assignment: the value it draws (rand) and
// whether a partial-assignment fault skips it.
const (
	assignOff = iota
	assignOn
	assignSkip
	assignLabels
)

// applyAssign runs one assignment leaf. The new value is computed once per
// (species, label) rather than once per agent; the per-agent draws —
// the PartialAssignProb skip coin, then the rand value — happen in agent
// order exactly as an agent-by-agent loop would make them.
func (e *Executor) applyAssign(s *compiledStmt) {
	skipProb := e.Faults.PartialAssignProb
	var label func(i int) int
	if skipProb > 0 || s.kind == kindAssignRand {
		label = func(int) int {
			if skipProb > 0 && e.RNG.Float64() < skipProb {
				return assignSkip
			}
			if s.kind == kindAssignRand && e.RNG.Bool() {
				return assignOn
			}
			return assignOff
		}
	}
	e.Pop.Remap(assignLabels, label, func(st bitmask.State, k int) bitmask.State {
		var val bool
		switch {
		case k == assignSkip:
			return st
		case s.kind == kindAssignFormula:
			val = s.cond.Match(st)
		case s.kind == kindAssignRand:
			val = k == assignOn
		default:
			val = s.onVal
		}
		return s.v.Set(st, val)
	})
}

// Stopped reports whether a StopAfterLeaves fault has halted the
// foreground program.
func (e *Executor) Stopped() bool { return e.stopped }

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n"
		}
		out += l
	}
	return out
}
