package engine

import (
	"math"
	"math/bits"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
)

// Runner drives a Dense population under a compiled protocol with the
// asynchronous sequential scheduler (uniform random ordered pairs) or the
// random-matching parallel scheduler. One parallel round is n interactions
// (sequential) or one matching (parallel); Rounds() reports parallel time
// t/n as used throughout the paper.
//
// Interactions resolve on species ids. A per-species filter records which
// groups each species can enter as initiator and as responder, so most
// non-firing picks cost two byte loads; the rest go through a memo of each
// (picked group, initiator species, responder species) outcome, filled the
// first time the triple occurs. The filter and the memo belong to the
// runner and live as long as it does; reusing one runner across repeated
// executions of the same protocol (as the framework executor does per
// leaf) keeps them warm.
type Runner struct {
	P   *Protocol
	Pop *Dense
	RNG *RNG

	// Interactions counts scheduler activations, including non-matching
	// picks (the paper's convention counts those as steps too).
	Interactions uint64

	// Stats, when non-nil, tallies per-rule firings (obs.NewRuleStats
	// sized to P.NumRules()). The nil default costs one branch per firing
	// and never touches the RNG stream.
	Stats *obs.RuleStats

	trackers []*Tracker
	// moved records whether a firing has changed some tracked count since
	// steps was entered; RunTracked re-evaluates its stop condition only
	// then.
	moved bool

	// admit[id·G+g] records whether species id matches an initiator
	// (entry 0) or a responder (entry 1) guard of group g (G groups;
	// admitUnknown until first asked). Both roles share one table so the
	// step loop reads either entry through one base pointer and length.
	admit   [][2]uint8
	nGroups int

	memo pairMemo
	// The (protocol, population, compaction generation, table size) the
	// filter, the memo and the trackers' species memberships were built
	// against.
	syncP       *Protocol
	syncPop     *Dense
	syncGen     uint64
	syncSpecies int
}

// NewRunner assembles a runner. The population must already be initialized.
func NewRunner(p *Protocol, pop *Dense, rng *RNG) *Runner {
	return &Runner{P: p, Pop: pop, RNG: rng}
}

// Rounds returns elapsed parallel time (interactions / n).
func (r *Runner) Rounds() float64 {
	return float64(r.Interactions) / float64(r.Pop.N())
}

// InteractionCount returns Interactions.
func (r *Runner) InteractionCount() uint64 { return r.Interactions }

// SetStats attaches a per-rule firing tally (nil detaches).
func (r *Runner) SetStats(s *obs.RuleStats) { r.Stats = s }

// HistogramInto snapshots the population into dst (cleared first).
func (r *Runner) HistogramInto(dst map[bitmask.State]int64) { r.Pop.HistogramInto(dst) }

// Track registers a guard for incremental counting and returns its tracker.
// Must be called before stepping (or counts resynced via ResyncTrackers).
func (r *Runner) Track(name string, f bitmask.Formula) *Tracker {
	t := &Tracker{Name: name, guard: bitmask.Compile(f)}
	t.count = int64(r.Pop.Count(t.guard))
	r.trackers = append(r.trackers, t)
	r.syncSpecies = -1 // the next sync fills the new tracker's memberships
	return t
}

// ResyncTrackers recomputes all tracker counts by scanning the population.
// Needed after out-of-band mutations (Dense.SetAgent / ApplyAll).
func (r *Runner) ResyncTrackers() {
	for _, t := range r.trackers {
		t.count = int64(r.Pop.Count(t.guard))
	}
}

// sync brings the per-species caches in line with the population: a new
// protocol, population or table compaction drops the memo and the tracker
// memberships, and species interned since the last call (by out-of-band
// writes or earlier misses) get their memberships.
func (r *Runner) sync() {
	d := r.Pop
	if r.syncP == r.P && r.syncPop == d && r.syncGen == d.gen && r.syncSpecies == len(d.states) {
		return
	}
	if r.syncP != r.P || r.syncPop != d || r.syncGen != d.gen {
		r.memo.reset()
		r.admit = r.admit[:0]
		r.nGroups = len(r.P.groups)
		for _, t := range r.trackers {
			t.match = t.match[:0]
		}
		r.syncP, r.syncPop, r.syncGen = r.P, d, d.gen
	}
	r.syncSpecies = len(d.states)
	r.admit = growZero(r.admit, len(d.states)*r.nGroups)
	for _, t := range r.trackers {
		for id := len(t.match); id < len(d.states); id++ {
			t.extend(d.states[id])
		}
	}
}

// Filter entries of admit. The step loop tests both roles at once by
// OR-ing their entries, so admitNo must be the only value with bit 0 set.
const (
	admitUnknown = 0
	admitNo      = 1
	admitYes     = 2
)

// admits reports whether species id matches an initiator (role 0) or a
// responder (role 1) guard of group g, filling the filter entry on first
// use.
func (r *Runner) admits(g int32, id uint32, role int) bool {
	e := &r.admit[int(id)*r.nGroups+int(g)][role]
	if *e == admitUnknown {
		*e = admitNo
		if r.P.groupAdmits(g, r.Pop.states[id], role == 1) {
			*e = admitYes
		}
	}
	return *e == admitYes
}

// miss computes an outcome the memo lacks and records it in slot, the
// empty slot a probe for it ended on.
func (r *Runner) miss(g int32, a, b uint32, slot *memoSlot) *memoSlot {
	d := r.Pop
	sa, sb := d.states[a], d.states[b]
	out := memoSlot{group: g, rule: -1, na: a, nb: b}
	if ri, rule := r.P.matchGroup(g, sa, sb); rule != nil {
		na, nb := rule.Apply(sa, sb)
		out.rule = int32(ri)
		if na != sa {
			out.na = d.intern(na)
		}
		if nb != sb {
			out.nb = d.intern(nb)
		}
		r.sync()
	}
	out.key = memoKey(a, b)
	return r.memo.insert(slot, out)
}

// outcome resolves group g picked for the agent pair (i, j): nil when the
// filter rules the pair out, else its memoized outcome.
func (r *Runner) outcome(g int32, i, j int) *memoSlot {
	a := r.Pop.agents
	e := r.memo.find(g, memoKey(a[i], a[j]))
	if e.key != 0 {
		return e
	}
	return r.resolve(g, i, j, e)
}

// resolve finishes a memo probe for group g and the agent pair (i, j) that
// ended on the empty slot: nil when the filter rules the pair out, else the
// newly computed outcome. A miss first compacts the population's table
// when that is due, which renumbers every species id, so callers re-read
// agent ids afterwards.
func (r *Runner) resolve(g int32, i, j int, slot *memoSlot) *memoSlot {
	a := r.Pop.agents
	if !r.admits(g, a[i], 0) || !r.admits(g, a[j], 1) {
		return nil
	}
	if r.Pop.maybeCompact() {
		r.sync()
		slot = r.memo.find(g, memoKey(a[i], a[j]))
	}
	return r.miss(g, a[i], a[j], slot)
}

// fire applies a resolved outcome to agents i and j: it records the firing
// and moves tracked counts. It reports whether a rule fired.
func (r *Runner) fire(e *memoSlot, i, j int) bool {
	if e == nil || e.rule < 0 {
		return false
	}
	a := r.Pop.agents
	oa, ob := a[i], a[j]
	if e.na != oa || e.nb != ob {
		a[i], a[j] = e.na, e.nb
		for _, t := range r.trackers {
			m := t.match
			if dc := int64(m[e.na]) + int64(m[e.nb]) - int64(m[oa]) - int64(m[ob]); dc != 0 {
				t.count += dc
				r.moved = true
			}
		}
	}
	r.Stats.Fire(int(e.rule), 1)
	return true
}

// pickGroup draws a uniform scheduler slot.
func (r *Runner) pickGroup() int32 {
	return r.P.slots[r.RNG.Intn(len(r.P.slots))]
}

// Step performs one asynchronous interaction: a uniform random ordered pair
// of distinct agents and one uniform rule pick. It reports whether a rule
// fired.
func (r *Runner) Step() bool {
	return r.steps(1, false) > 0
}

// steps runs up to k sequential interactions and returns how many of them
// fired a rule. When gated it returns right after the first interaction
// that moves a tracked count. scan draws the picks; the few the filter
// lets through resolve and fire here.
func (r *Runner) steps(k uint64, gated bool) (fired uint64) {
	r.sync()
	r.moved = false
	left := k
	for left > 0 {
		i, j, g, rest, hit := r.scan(left)
		left = rest
		if !hit {
			break
		}
		if r.fire(r.outcome(g, i, j), i, j) {
			fired++
			if gated && r.moved {
				break
			}
		}
	}
	r.Interactions += k - left
	return fired
}

// scan runs up to left sequential picks, each a uniform ordered pair of
// distinct agents (i, j) and the group g of a uniform scheduler slot, and
// stops after the first pick the filter does not rule out. It returns that
// pick with hit set, and the picks still left. The xoshiro state and the
// tables stay in locals for the whole loop. Each pick draws exactly what
// RNG.Intn(n), Intn(n−1) and Intn(slots) would: every draw makes Intn's
// lo < bound pre-test and redraws while lemireKeeps rejects it.
func (r *Runner) scan(left uint64) (i, j int, g int32, rest uint64, hit bool) {
	s0, s1, s2, s3 := r.RNG.s[0], r.RNG.s[1], r.RNG.s[2], r.RNG.s[3]
	slots, adm, nG := r.P.slots, r.admit, r.nGroups
	us := uint64(len(slots))
	agents := r.Pop.agents
	un := uint64(len(agents))
	for left > 0 {
		left--
		var x, hi, lo uint64
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		hi, lo = bits.Mul64(x, un)
		if lo < un {
			for !lemireKeeps(lo, un) {
				x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, un)
			}
		}
		pi := hi
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		hi, lo = bits.Mul64(x, un-1)
		if lo < un-1 {
			for !lemireKeeps(lo, un-1) {
				x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, un-1)
			}
		}
		// The partner skips agent pi without a branch: pi−1−hi is
		// negative, so its sign bit is set, exactly when hi ≥ pi.
		pj := hi + (pi-1-hi)>>63
		x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		hi, lo = bits.Mul64(x, us)
		if lo < us {
			for !lemireKeeps(lo, us) {
				x, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
				hi, lo = bits.Mul64(x, us)
			}
		}
		pg := slots[hi]
		// One branch for both roles: admitNo is the only odd entry.
		if (adm[int(agents[pi])*nG+int(pg)][0]|adm[int(agents[pj])*nG+int(pg)][1])&admitNo == 0 {
			i, j, g, hit = int(pi), int(pj), pg, true
			break
		}
	}
	r.RNG.s = [4]uint64{s0, s1, s2, s3}
	return i, j, g, left, hit
}

// RunRounds advances the sequential scheduler by k parallel rounds
// (k·n interactions).
func (r *Runner) RunRounds(k float64) {
	r.steps(uint64(k*float64(r.Pop.N())), false)
}

// RunTracked advances the sequential scheduler until cond holds or
// maxRounds elapses (⌈maxRounds·n⌉ interactions), returning the parallel
// time consumed and whether cond was met. When trackers are registered the
// condition is re-evaluated only after interactions that moved a tracked
// count — the Kernel contract every kernel's RunTracked follows — so it
// must read registered trackers (or state derived from them); with no
// trackers it runs after every interaction.
func (r *Runner) RunTracked(cond func() bool, maxRounds float64) (rounds float64, ok bool) {
	start := r.Rounds()
	budget := r.Interactions + uint64(math.Ceil(maxRounds*float64(r.Pop.N())))
	gated := len(r.trackers) > 0
	check := true
	for {
		if check {
			if cond() {
				return r.Rounds() - start, true
			}
		}
		if r.Interactions >= budget {
			return r.Rounds() - start, false
		}
		if gated {
			r.steps(budget-r.Interactions, true)
			check = r.moved
		} else {
			r.steps(1, false)
		}
	}
}

// MatchingRound performs one round of the random-matching parallel
// scheduler: a uniform random matching of ⌊n/2⌋ pairs is activated, and
// each pair independently picks one uniform rule. Counts as n interactions
// of parallel time (one round).
func (r *Runner) MatchingRound() {
	r.sync()
	n := len(r.Pop.agents)
	perm := r.perm()
	r.RNG.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for k := 0; k+1 < n; k += 2 {
		i, j := int(perm[k]), int(perm[k+1])
		// Orientation of the pair is random via the shuffle.
		r.fire(r.outcome(r.pickGroup(), i, j), i, j)
	}
	r.Interactions += uint64(n)
}

func (r *Runner) perm() []int32 {
	if r.Pop.perm == nil {
		n := len(r.Pop.agents)
		r.Pop.perm = make([]int32, n)
		for i := range r.Pop.perm {
			r.Pop.perm[i] = int32(i)
		}
	}
	return r.Pop.perm
}

// StopCondition is evaluated between rounds; returning true stops the run.
type StopCondition func(r *Runner) bool

// RunUntil advances the sequential scheduler until the condition holds
// (checked every checkEvery rounds) or maxRounds elapses. It returns the
// parallel time consumed in this call and whether the condition was met.
func (r *Runner) RunUntil(cond StopCondition, checkEvery, maxRounds float64) (rounds float64, ok bool) {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	start := r.Rounds()
	for {
		if cond(r) {
			return r.Rounds() - start, true
		}
		if r.Rounds()-start >= maxRounds {
			return r.Rounds() - start, false
		}
		r.RunRounds(checkEvery)
	}
}

// StepPair performs one scheduler activation on the chosen ordered pair
// (i, j): one uniform rule pick, fired if matching. It lets tests drive
// adversarial schedulers — the paper's guaranteed-behavior property
// (Definition 2.1) must hold under *any* interaction sequence, including
// ones that isolate subsets of agents indefinitely.
func (r *Runner) StepPair(i, j int) bool {
	if i == j {
		panic("engine: an agent cannot interact with itself")
	}
	r.sync()
	r.Interactions++
	return r.fire(r.outcome(r.pickGroup(), i, j), i, j)
}

// RunIsolated advances k interactions restricted to the agents whose
// indices lie in live (which must contain at least two indices): a simple
// adversarial scheduler that starves everyone else.
func (r *Runner) RunIsolated(live []int, k int) {
	if len(live) < 2 {
		panic("engine: isolation set needs at least two agents")
	}
	for s := 0; s < k; s++ {
		pi := r.RNG.Intn(len(live))
		pj := r.RNG.Intn(len(live) - 1)
		if pj >= pi {
			pj++
		}
		r.StepPair(live[pi], live[pj])
	}
}
