package engine

import "slices"

// pairRule is one rule-group entry of a pair-type dispatch list.
type pairRule struct {
	rule   int32
	weight int32
	t1, t2 int32 // output slots, -1 until first resolved
}

// pairCacheLimit bounds the pair-type cache; beyond slots² entries the
// dispatch lists are rebuilt per use.
const pairCacheLimit = 1 << 14

// DefaultMinRunFirings is the aggregate tier's MinRunFirings: the
// aggregate-vs-leap crossover in expected firings per collision-free run.
// It is calibrated from the committed kernel benchmarks (one aggregate
// decomposition costs on the order of 50–100 leap steps).
const DefaultMinRunFirings = 64

// aggregateStep simulates one collision-free run (possibly truncated at
// the interaction bound) plus, when not truncated, its closing collision
// interaction. Leap steps make non-firing interactions free, but at
// n ≥ 10^8 the E11 workload is firing-dominated and the ~100 ns per
// individual firing becomes the wall; this step batches the firings
// themselves. It is exact in distribution (law-identical, not
// stream-identical) and decomposes the schedule at its first *collision*:
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
//     count-delta is applied once per run through Counted.addSlot, which
//     keeps the match index's tallies, trackers, and samplers exact.
//  4. Fire the collision interaction (the ℓ+1st) literally: its pair is
//     uniform among ordered pairs with at least one already-touched agent.
//
// Runs expected to carry few firings (small populations, or the long
// quiescent tail of exact majority) take a leap step instead, which is
// already optimal there; MinRunFirings sets the crossover.
func (r *CountedRunner) aggregateStep(maxInteractions uint64) {
	pop := r.Pop
	r.syncPairCache()
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
func (r *CountedRunner) resetScratch(ns int) {
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
func (r *CountedRunner) mvhRun(m int64) {
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
	// Apply the accumulated net deltas, one addSlot call per moved species.
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
func (r *CountedRunner) firePairs(a, b int32, K int64) {
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
func (r *CountedRunner) smallRun(m int64) {
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
func (r *CountedRunner) collisionStep(m int64) {
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
func (r *CountedRunner) pickCollision(touched bool, T, F int64, excl int32) int32 {
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
func (r *CountedRunner) syncPairCache() {
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
func (r *CountedRunner) pairRulesFor(a, b int32) []pairRule {
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

func (r *CountedRunner) buildPairRules(a, b int32) []pairRule {
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
