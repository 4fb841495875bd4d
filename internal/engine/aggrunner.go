package engine

import (
	"math"
	"slices"

	"popkit/internal/bitmask"
	"popkit/internal/obs"
)

// AggregateRunner drives a Counted population through the same Markov chain
// as Runner, CountRunner, and BatchRunner, but simulates whole *runs* of
// interactions per step instead of one firing at a time. BatchRunner's
// geometric leaps make non-firing interactions free; at n ≥ 10^8 the E11
// workload is firing-dominated and the ~100 ns per individual firing
// becomes the wall. This runner batches the firings themselves.
//
// The construction is exact in distribution (law-identical, like
// BatchRunner — not stream-identical). A step decomposes the schedule at
// its first *collision*:
//
//  1. Draw ℓ, the length of the maximal prefix of activations whose
//     participants are pairwise distinct, from its closed-form survival
//     function (collisionRunLen). Conditioned on ℓ, those activations
//     involve 2ℓ agents sampled uniformly without replacement — their
//     outcomes are mutually independent of ordering, so they can be
//     resolved in aggregate:
//  2. Decompose who participated: the initiator and responder species
//     multisets are multivariate hypergeometric draws against the count
//     vector, and the pairing between them is a uniform random bijection,
//     sampled as a contingency table of nested hypergeometric rows.
//  3. Decompose what fired: each pair type (a, b) independently picked a
//     uniform scheduler slot, so the firing counts of the rule groups
//     matching (a, b) follow a conditional Binomial chain; every rule's
//     count-delta is applied once per run through the same mutation hook
//     the other kernels use, keeping tallies, trackers, and samplers exact.
//  4. Fire the collision interaction (the ℓ+1st) literally: its pair is
//     uniform among ordered pairs with at least one already-touched agent.
//
// When a run is expected to contain few firings (q·E[ℓ] < MinRunFirings —
// small populations, or the long quiescent tail of exact majority where
// BatchRunner's one-geometric-per-firing leap is already optimal), the
// step falls back to exactly that leap. Both step flavours are exact
// transitions of the same chain, and the choice depends only on the
// current counts, so mixing them preserves the law.
//
// Fired[i] counts the firings of rule i; FiredTotal is their sum.
type AggregateRunner struct {
	P   *Protocol
	Pop *Counted
	RNG *RNG

	// Interactions counts scheduler activations including non-firing ones.
	Interactions uint64

	// Fired counts rule firings, indexed by rule; FiredTotal is the sum.
	Fired      []uint64
	FiredTotal uint64

	// Stats, when non-nil, mirrors Fired into a shared obs.RuleStats.
	Stats *obs.RuleStats

	// MinRunFirings gates the aggregate path: a collision-free run is
	// decomposed in aggregate only when its expected firing count q·E[ℓ]
	// reaches this bound; below it a geometric leap plus one forced firing
	// (BatchRunner's step) is cheaper. The default is calibrated from the
	// committed kernel benchmarks (one aggregate decomposition costs on
	// the order of 50–100 leap steps). Tests set 0 to force the aggregate
	// path at small n.
	MinRunFirings float64

	idx    *matchIndex
	pairsW []float64

	// Per-population constants of the run-length sampler.
	lgN1    float64 // ln Γ(n+1)
	lnPairs float64 // ln n + ln(n−1)
	meanRun float64 // E[ℓ] ≈ √(πn/8)

	// Slot-indexed scratch, zeroed per aggregate step.
	compI []int64 // initiator species multiset of the run
	compR []int64 // responder species multiset
	compF []int64 // untouched ("fresh") agents per species
	delta []int64 // net count delta accumulated over the run
	aA    []int32 // small-path initiator slots
	aB    []int32 // small-path responder slots

	// pairRules caches, per (initiator slot, responder slot), the rule
	// groups whose unique matching rule fires on that pair, with weights
	// and lazily resolved output slots. Keyed like the transition cache:
	// reset whenever the slot table reshapes.
	pairRules [][]pairRule
	pairBuilt []bool
	pairGen   uint64
	pairSlots int
}

// pairRule is one rule-group entry of a pair-type dispatch list.
type pairRule struct {
	rule   int32
	weight int32
	t1, t2 int32 // output slots, -1 until first resolved
}

// pairCacheLimit bounds the pair-type cache; beyond slots² entries the
// dispatch lists are rebuilt per use.
const pairCacheLimit = 1 << 14

// defaultMinRunFirings is the aggregate-vs-leap crossover in expected
// firings per collision-free run.
const defaultMinRunFirings = 64

// NewAggregateRunner assembles an aggregate runner. Like the other counted
// runners it rejects protocols with ordered (first-match) groups and
// attaches to the population's mutation hook, so a population can drive
// only one incremental runner at a time.
func NewAggregateRunner(p *Protocol, pop *Counted, rng *RNG) *AggregateRunner {
	n := float64(pop.n)
	lg, _ := math.Lgamma(n + 1)
	return &AggregateRunner{
		P: p, Pop: pop, RNG: rng,
		Fired:         make([]uint64, len(p.Set.Rules)),
		MinRunFirings: defaultMinRunFirings,
		idx:           newMatchIndex(p, pop),
		pairsW:        make([]float64, len(p.Set.Rules)),
		lgN1:          lg,
		lnPairs:       math.Log(n) + math.Log(n-1),
		meanRun:       math.Sqrt(math.Pi * n / 8),
	}
}

// Rounds returns elapsed parallel time (interactions / n).
func (r *AggregateRunner) Rounds() float64 {
	return float64(r.Interactions) / float64(r.Pop.n)
}

// Track registers a guard for incremental counting and returns its
// tracker. RunUntil re-evaluates its stop condition only when some tracked
// count moves.
func (r *AggregateRunner) Track(name string, f bitmask.Formula) *CountTracker {
	return r.idx.track(name, f)
}

// stepProbability returns the probability that a single scheduler
// activation fires some rule.
func (r *AggregateRunner) stepProbability() float64 {
	n := float64(r.Pop.n)
	totalPairs := n * (n - 1)
	var q float64
	ix := r.idx
	for i := range r.P.ruleWeightN {
		q += r.P.ruleWeightN[i] * float64(ix.m1[i]*ix.m2[i]-ix.m12[i]) / totalPairs
	}
	return q
}

// LeapStep advances the chain by one step of whichever flavour the current
// firing density favours: an aggregate collision-run decomposition, or a
// geometric leap through the quiescent stretch plus one forced firing. It
// returns false (without advancing) when no rule can ever fire again.
// maxInteractions bounds the step: the runner never advances past the
// bound (run decompositions are truncated to it, which is exact — the
// first k activations of a run of length ≥ k are themselves a uniform
// collision-free prefix).
func (r *AggregateRunner) LeapStep(maxInteractions uint64) bool {
	if maxInteractions > 0 && r.Interactions >= maxInteractions {
		return true
	}
	r.idx.syncCaches()
	r.syncPairCache()
	q := r.stepProbability()
	if q <= 0 {
		return false
	}
	if q*r.meanRun < r.MinRunFirings {
		return r.leapOne(q, maxInteractions)
	}
	r.aggregateStep(maxInteractions)
	return true
}

// leapOne is the sparse-regime step: one geometric leap over the
// non-firing stretch, then one forced-pick firing.
func (r *AggregateRunner) leapOne(q float64, maxInteractions uint64) bool {
	skip := r.RNG.Geometric(q)
	if maxInteractions > 0 && r.Interactions+skip+1 > maxInteractions {
		r.Interactions = maxInteractions
		return true
	}
	r.Interactions += skip + 1
	idx := r.idx.fireForcedMatching(r.RNG, r.pairsW)
	r.Fired[idx]++
	r.FiredTotal++
	r.Stats.Fire(idx, 1)
	return true
}

// aggregateStep simulates one collision-free run (possibly truncated at
// the interaction bound) plus, when not truncated, its closing collision
// interaction.
func (r *AggregateRunner) aggregateStep(maxInteractions uint64) {
	pop := r.Pop
	l := r.RNG.collisionRunLen(pop.n, r.lgN1, r.lnPairs)
	m := l
	collide := true
	if maxInteractions > 0 {
		if avail := int64(maxInteractions - r.Interactions); l >= avail {
			// The bound falls inside the run: simulate exactly the first
			// avail activations. Conditioned on ℓ ≥ avail they are a
			// uniform collision-free prefix, so the same decomposition
			// applies; the collision is never reached.
			m = avail
			collide = false
		}
	}
	ns := len(pop.keys)
	r.resetScratch(ns)
	live := 0
	for s := 0; s < ns; s++ {
		if pop.cnt[s] > 0 {
			live++
		}
	}
	// Composition flavour: the hypergeometric decomposition costs
	// O(live²) closed-form draws; when the run is short relative to the
	// species count it is cheaper (and equally exact) to draw the 2m
	// participants individually through the alias sampler.
	if m < int64(32*live) {
		r.smallRun(m)
	} else {
		r.mvhRun(m)
	}
	r.Interactions += uint64(m)
	if collide {
		r.collisionStep(m)
	}
}

// resetScratch sizes and zeroes the slot-indexed scratch vectors.
func (r *AggregateRunner) resetScratch(ns int) {
	r.compI = resizeZero(r.compI, ns)
	r.compR = resizeZero(r.compR, ns)
	r.compF = resizeZero(r.compF, ns)
	r.delta = resizeZero(r.delta, ns)
}

func resizeZero(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growZero extends s with zeros to length n, preserving existing entries.
func growZero[T any](s []T, n int) []T {
	old := len(s)
	if old >= n {
		return s
	}
	s = slices.Grow(s, n-old)[:n]
	clear(s[old:])
	return s
}

// mvhRun resolves m collision-free interactions in aggregate: initiator
// and responder species multisets by sequential hypergeometrics, their
// pairing by nested hypergeometric contingency rows, per-pair rule-group
// firing counts by conditional Binomial chains, and one count-delta
// application per touched species.
func (r *AggregateRunner) mvhRun(m int64) {
	pop, rng := r.Pop, r.RNG
	ns := len(pop.keys)

	// Initiator multiset: MVH(m) against the counts.
	remaining, want := pop.n, m
	for s := 0; s < ns && want > 0; s++ {
		c := pop.cnt[s]
		if c == 0 {
			continue
		}
		var k int64
		if remaining == c {
			k = want
		} else {
			k = rng.Hypergeometric(remaining, c, want)
		}
		r.compI[s] = k
		want -= k
		remaining -= c
	}
	// Responder multiset: MVH(m) against the counts minus the initiators.
	remaining, want = pop.n-m, m
	for s := 0; s < ns && want > 0; s++ {
		c := pop.cnt[s] - r.compI[s]
		if c == 0 {
			continue
		}
		var k int64
		if remaining == c {
			k = want
		} else {
			k = rng.Hypergeometric(remaining, c, want)
		}
		r.compR[s] = k
		want -= k
		remaining -= c
	}
	// Fresh (untouched) agents per species, fixed before any mutation —
	// the collision step needs them to identify the touched multiset.
	for s := 0; s < ns; s++ {
		r.compF[s] = pop.cnt[s] - r.compI[s] - r.compR[s]
	}
	// Pairing: a uniform bijection between the two multisets. Row by
	// initiator species (ascending), each row an MVH draw from the
	// responders not yet paired.
	pending := m
	for a := 0; a < ns; a++ {
		ia := r.compI[a]
		if ia == 0 {
			continue
		}
		remRow, want := pending, ia
		for b := 0; b < ns && want > 0; b++ {
			rb := r.compR[b]
			if rb == 0 {
				continue
			}
			var k int64
			if remRow == rb {
				k = want
			} else {
				k = rng.Hypergeometric(remRow, rb, want)
			}
			if k > 0 {
				r.firePairs(int32(a), int32(b), k)
				r.compR[b] -= k
				want -= k
			}
			remRow -= rb
		}
		pending -= ia
	}
	// Apply the accumulated net deltas, one hook call per moved species.
	// Non-firing pairs cancel exactly, so only rule effects remain.
	for s := range r.delta {
		if d := r.delta[s]; d != 0 {
			pop.addSlot(int32(s), d)
		}
	}
}

// firePairs resolves K interactions of pair type (a, b): each picked a
// uniform scheduler slot, so the firing counts of the matching rule groups
// follow a conditional Binomial chain; slots of non-matching groups are
// non-firings and need no work at all.
func (r *AggregateRunner) firePairs(a, b int32, K int64) {
	prs := r.pairRulesFor(a, b)
	if len(prs) == 0 {
		return
	}
	remW := int64(r.P.NumSlots())
	remaining := K
	for i := range prs {
		if remaining == 0 {
			break
		}
		pr := &prs[i]
		f := r.RNG.Binomial(remaining, float64(pr.weight)/float64(remW))
		remW -= int64(pr.weight)
		if f == 0 {
			continue
		}
		remaining -= f
		if pr.t1 < 0 {
			rl := r.P.Rule(int(pr.rule))
			ns1, ns2 := rl.Apply(r.Pop.keys[a], r.Pop.keys[b])
			pr.t1 = r.Pop.slotFor(ns1)
			pr.t2 = r.Pop.slotFor(ns2)
			r.delta = growZero(r.delta, len(r.Pop.keys))
		}
		r.delta[a] -= f
		r.delta[b] -= f
		r.delta[pr.t1] += f
		r.delta[pr.t2] += f
		r.Fired[pr.rule] += uint64(f)
		r.FiredTotal += uint64(f)
		r.Stats.Fire(int(pr.rule), uint64(f))
	}
}

// smallRun resolves a short run literally: the 2m distinct participants
// are drawn one by one through the alias sampler (proposal ∝ count,
// rejection correcting for already-drawn agents), then each pair picks its
// scheduler slot and fires through the shared species-level fire path.
// Exact for any m; preferred when m is small relative to the species count
// so the O(live²) hypergeometric decomposition wouldn't amortize.
func (r *AggregateRunner) smallRun(m int64) {
	pop, rng := r.Pop, r.RNG
	if cap(r.aA) < int(m) {
		r.aA = make([]int32, m)
		r.aB = make([]int32, m)
	}
	r.aA, r.aB = r.aA[:m], r.aB[:m]
	// compI doubles as the drawn-agents tally ("used") here.
	used := r.compI
	drawOne := func() int32 {
		for {
			s := pop.sampleSlotAlias(rng)
			if u := used[s]; u > 0 && rng.Int63n(pop.cnt[s]) < u {
				continue
			}
			used[s]++
			return s
		}
	}
	for j := int64(0); j < m; j++ {
		r.aA[j] = drawOne()
	}
	for j := int64(0); j < m; j++ {
		r.aB[j] = drawOne()
	}
	ns := len(pop.keys)
	for s := 0; s < ns; s++ {
		r.compF[s] = pop.cnt[s] - used[s]
	}
	for j := int64(0); j < m; j++ {
		a, b := r.aA[j], r.aB[j]
		gi := r.P.slots[rng.Intn(len(r.P.slots))]
		ri, _ := r.P.matchGroup(gi, pop.keys[a], pop.keys[b])
		if ri < 0 {
			continue
		}
		r.idx.fire(int32(ri), a, b)
		r.Fired[ri]++
		r.FiredTotal++
		r.Stats.Fire(ri, 1)
	}
}

// collisionStep fires the interaction that terminated the run: its ordered
// pair is uniform among pairs of distinct agents that are NOT both fresh.
// Touched agents are identified by their current species (exchangeability:
// agents of one species are interchangeable for all future evolution), as
// current count minus fresh count.
func (r *AggregateRunner) collisionStep(m int64) {
	pop, rng := r.Pop, r.RNG
	ns := len(pop.keys)
	r.compF = growZero(r.compF, ns) // new species from this run are all touched
	T := 2 * m
	F := pop.n - T
	wTT := T * (T - 1)
	wTF := T * F
	pick := rng.Int63n(wTT + 2*wTF)
	uTouched, vTouched := true, true
	switch {
	case pick < wTT:
	case pick < wTT+wTF:
		vTouched = false
	default:
		uTouched = false
	}
	slotU := r.pickCollision(uTouched, T, F, -1)
	var slotV int32
	if uTouched && vTouched {
		slotV = r.pickCollision(true, T-1, F, slotU)
	} else {
		slotV = r.pickCollision(vTouched, T, F, -1)
	}
	r.Interactions++
	gi := r.P.slots[rng.Intn(len(r.P.slots))]
	ri, _ := r.P.matchGroup(gi, pop.keys[slotU], pop.keys[slotV])
	if ri < 0 {
		return
	}
	r.idx.fire(int32(ri), slotU, slotV)
	r.Fired[ri]++
	r.FiredTotal++
	r.Stats.Fire(ri, 1)
}

// pickCollision draws a species slot proportionally to the touched
// (current minus fresh) or fresh per-species counts, with total mass
// `total` and one agent at slot excl removed from the pool.
func (r *AggregateRunner) pickCollision(touched bool, T, F int64, excl int32) int32 {
	pop := r.Pop
	total := F
	if touched {
		total = T // already reduced by the caller when excl is set
	}
	target := r.RNG.Int63n(total)
	for s := range pop.cnt {
		w := r.compF[s]
		if touched {
			w = pop.cnt[s] - r.compF[s]
		}
		if int32(s) == excl {
			w--
		}
		if w <= 0 {
			continue
		}
		if target < w {
			return int32(s)
		}
		target -= w
	}
	panic("engine: collision sampling walked off the table")
}

// syncPairCache revalidates the pair-type dispatch cache against the
// current slot table.
func (r *AggregateRunner) syncPairCache() {
	pop := r.Pop
	if r.pairGen == pop.compactGen && r.pairSlots == len(pop.keys) {
		return
	}
	r.pairGen = pop.compactGen
	r.pairSlots = len(pop.keys)
	n := r.pairSlots * r.pairSlots
	if n > pairCacheLimit {
		r.pairRules, r.pairBuilt = nil, nil
		return
	}
	if cap(r.pairRules) < n {
		r.pairRules = make([][]pairRule, n)
		r.pairBuilt = make([]bool, n)
	} else {
		r.pairRules = r.pairRules[:n]
		r.pairBuilt = r.pairBuilt[:n]
		for i := range r.pairRules {
			r.pairRules[i] = nil
			r.pairBuilt[i] = false
		}
	}
}

// pairRulesFor returns the dispatch list of pair type (a, b), cached when
// the cache fits.
func (r *AggregateRunner) pairRulesFor(a, b int32) []pairRule {
	if r.pairBuilt != nil {
		ci := int(a)*r.pairSlots + int(b)
		if r.pairBuilt[ci] {
			return r.pairRules[ci]
		}
		prs := r.buildPairRules(a, b)
		r.pairRules[ci] = prs
		r.pairBuilt[ci] = true
		return prs
	}
	return r.buildPairRules(a, b)
}

func (r *AggregateRunner) buildPairRules(a, b int32) []pairRule {
	var prs []pairRule
	sa, sb := r.Pop.keys[a], r.Pop.keys[b]
	for gi := range r.P.groups {
		if ri, _ := r.P.matchGroup(int32(gi), sa, sb); ri >= 0 {
			prs = append(prs, pairRule{
				rule:   int32(ri),
				weight: int32(r.P.Set.Groups[gi].Weight),
				t1:     -1, t2: -1,
			})
		}
	}
	return prs
}

// RunBatch advances until at least maxFirings rule firings have executed
// (aggregate steps fire in lumps, so the total may overshoot), bounded by
// maxInteractions total activations (0 = unbounded). It returns the number
// of firings executed and whether the protocol can still move.
func (r *AggregateRunner) RunBatch(maxFirings, maxInteractions uint64) (fired uint64, alive bool) {
	start := r.FiredTotal
	for r.FiredTotal-start < maxFirings {
		if maxInteractions > 0 && r.Interactions >= maxInteractions {
			return r.FiredTotal - start, true
		}
		if !r.LeapStep(maxInteractions) {
			return r.FiredTotal - start, false
		}
	}
	return r.FiredTotal - start, true
}

// RunUntil leaps until the condition holds or maxRounds elapses or the
// protocol goes silent, returning the parallel time consumed and whether
// the condition was met.
//
// When trackers are registered (Track), the condition is re-evaluated only
// after steps that moved a tracked count. Conditions are checked at run
// boundaries: a target hit mid-run is observed up to one collision-free
// run (E[ℓ] ≈ 0.63·√n interactions, well under one parallel round) later —
// the hitting times the registry protocols measure are against absorbing
// targets, where the boundary is exact up to that sub-round granularity.
func (r *AggregateRunner) RunUntil(cond func(*AggregateRunner) bool, maxRounds float64) (rounds float64, ok bool) {
	start := r.Rounds()
	n := float64(r.Pop.n)
	budget := uint64(math.Ceil(maxRounds*n)) + r.Interactions
	gated := len(r.idx.trackers) > 0
	check := true
	for {
		if check || !gated {
			r.idx.trackersMoved = false
			if cond(r) {
				return r.Rounds() - start, true
			}
		}
		if r.Interactions >= budget {
			return r.Rounds() - start, false
		}
		if !r.LeapStep(budget) {
			// Silent: the configuration can never change again.
			return r.Rounds() - start, cond(r)
		}
		check = r.idx.trackersMoved
	}
}
