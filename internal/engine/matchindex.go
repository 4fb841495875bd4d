package engine

import (
	"popkit/internal/bitmask"
)

// This file implements the incremental match-count machinery shared by the
// counted runners. The historical kernel recomputed the per-rule tallies
// m1/m2/m12 with a full #species × #rules rescan before every leap; the
// matchIndex maintains them as running sums instead, fed one delta at a
// time through Counted's mutation hook. Per-state guard evaluations happen
// once — the first time a state is seen — and are memoized as dispatch
// rows, so the leap loop itself touches only integer adds.

// rowEntry marks one rule whose guards match a given state.
type rowEntry struct {
	rule  int32
	flags uint8 // rowG1 | rowG2
}

const (
	rowG1 = 1 << iota // state matches the rule's initiator guard
	rowG2             // state matches the rule's responder guard
)

// stateRow is the memoized dispatch row of one state: the rules it can
// participate in, with initiator/responder flags. Rules matching neither
// side are absent. Rows record the one-time guard evaluations; the hot
// loops never touch them — rebuildDispatch flattens the rows of the live
// slots into the contiguous struct-of-arrays layout below.
type stateRow struct {
	entries     []rowEntry
	r1, r2, r12 []int32
}

// matchIndex binds one (Protocol, Counted) pair: per-rule m1/m2/m12
// tallies, memoized dispatch rows, and registered trackers, all maintained
// incrementally from count deltas.
type matchIndex struct {
	p   *Protocol
	pop *Counted

	// m1[i], m2[i] count agents matching rule i's initiator and responder
	// guards; m12[i] counts agents matching both (the same-agent
	// correction in the ordered-pair count m1·m2 − m12).
	m1, m2, m12 []int64

	// occ1[i], occ2[i] count occupied species (not agents) matching rule
	// i's guards. When a guard has exactly one occupied species the
	// corresponding participant pick is deterministic, and BatchRunner
	// skips the RNG draw entirely.
	occ1, occ2 []int64

	rows map[bitmask.State]*stateRow // per-state guard-eval memoization

	// Struct-of-arrays dispatch over the live slots, rebuilt by syncSlots
	// whenever the slot table changes shape. The historical layout was a
	// []*stateRow with per-row slices — three pointer hops per delta; the
	// flat layout keeps the leap loop on two contiguous arrays:
	//
	//   dispRule[dispOff[3s]:dispOff[3s+1]]   rules matching slot s as initiator
	//   dispRule[dispOff[3s+1]:dispOff[3s+2]] … as responder
	//   dispRule[dispOff[3s+2]:dispOff[3s+3]] … as both (the m12 correction)
	//
	// flagsMat is the transposed O(1) lookup the pick loops scan: entry
	// [rule·flagStride + slot] holds the rowG1|rowG2 flags, laid out
	// rule-major so a scan over slots for a fixed rule is contiguous.
	dispOff    []int32
	dispRule   []int32
	flagsMat   []uint8
	flagStride int
	nSlots     int // number of slots the flat arrays cover

	// trackers are indexed by slot (Tracker.match[slot]).
	trackers []*Tracker
	// trackersMoved is set whenever a tracker count changes; RunTracked
	// clears it after re-evaluating its stop condition.
	trackersMoved bool

	compactGen uint64 // pop.compactGen the slot caches were built against

	// trans caches rule firings at the species level: (rule, initiator
	// slot, responder slot) → packed result slots, so the hot loop applies
	// a firing without re-evaluating updates or hashing states. Rebuilt
	// whenever the slot table changes shape. Shared by every counted
	// runner driving this index.
	trans      []int64
	transSlots int
	transGen   uint64
}

// transUnset marks an empty transition-cache entry.
const transUnset = int64(-1)

// transCacheLimit bounds the dense cache; protocols with huge live state
// spaces fall back to applying rules directly.
const transCacheLimit = 1 << 16

// newMatchIndex builds the index, performs the single full scan that seeds
// the tallies, and attaches the index to the population's mutation hook.
func newMatchIndex(p *Protocol, pop *Counted) *matchIndex {
	if p.Set.HasOrderedGroups() {
		panic("engine: counted runners do not support ordered rule groups")
	}
	nr := len(p.Set.Rules)
	ix := &matchIndex{
		p: p, pop: pop,
		m1: make([]int64, nr), m2: make([]int64, nr), m12: make([]int64, nr),
		occ1: make([]int64, nr), occ2: make([]int64, nr),
		rows: make(map[bitmask.State]*stateRow),
	}
	ix.syncSlots()
	for slot := 0; slot < ix.nSlots; slot++ {
		if k := pop.cnt[slot]; k > 0 {
			ix.bumpSlot(int32(slot), k)
			ix.occBumpSlot(int32(slot), 1)
		}
	}
	pop.attachHook(ix.apply)
	return ix
}

// rowOf memoizes the dispatch row of a state.
func (ix *matchIndex) rowOf(s bitmask.State) *stateRow {
	if row, ok := ix.rows[s]; ok {
		return row
	}
	row := &stateRow{}
	for i := range ix.p.Set.Rules {
		var f uint8
		if ix.p.ruleG1[i].Match(s) {
			f |= rowG1
		}
		if ix.p.ruleG2[i].Match(s) {
			f |= rowG2
		}
		if f != 0 {
			row.entries = append(row.entries, rowEntry{rule: int32(i), flags: f})
			if f&rowG1 != 0 {
				row.r1 = append(row.r1, int32(i))
			}
			if f&rowG2 != 0 {
				row.r2 = append(row.r2, int32(i))
			}
			if f == rowG1|rowG2 {
				row.r12 = append(row.r12, int32(i))
			}
		}
	}
	ix.rows[s] = row
	return row
}

// syncSlots (re)validates the slot-keyed caches: after a compaction they
// are rebuilt from scratch; after appends the memoized rows and tracker
// bitmaps extend in place and the flat dispatch arrays are re-flattened.
func (ix *matchIndex) syncSlots() {
	pop := ix.pop
	if ix.compactGen != pop.compactGen {
		ix.nSlots = 0
		for _, t := range ix.trackers {
			t.match = t.match[:0]
		}
		ix.compactGen = pop.compactGen
	}
	if ix.nSlots == len(pop.keys) {
		return
	}
	for slot := ix.nSlots; slot < len(pop.keys); slot++ {
		s := pop.keys[slot]
		ix.rowOf(s)
		for _, t := range ix.trackers {
			t.extend(s)
		}
	}
	ix.nSlots = len(pop.keys)
	ix.rebuildDispatch()
}

// rebuildDispatch re-flattens the memoized rows of the live slots into the
// contiguous dispatch arrays. O(#slots × row length) plus the flags matrix
// fill; slot-table reshapes are rare (new species discovery, compaction),
// so the cost amortizes to nothing against the per-delta wins.
func (ix *matchIndex) rebuildDispatch() {
	ns := ix.nSlots
	nr := len(ix.p.Set.Rules)
	ix.dispOff = append(ix.dispOff[:0], 0)
	ix.dispRule = ix.dispRule[:0]
	ix.flagStride = ns
	if need := nr * ns; cap(ix.flagsMat) < need {
		ix.flagsMat = make([]uint8, need)
	} else {
		ix.flagsMat = ix.flagsMat[:need]
		clear(ix.flagsMat)
	}
	for slot := 0; slot < ns; slot++ {
		row := ix.rows[ix.pop.keys[slot]]
		ix.dispRule = append(ix.dispRule, row.r1...)
		ix.dispOff = append(ix.dispOff, int32(len(ix.dispRule)))
		ix.dispRule = append(ix.dispRule, row.r2...)
		ix.dispOff = append(ix.dispOff, int32(len(ix.dispRule)))
		ix.dispRule = append(ix.dispRule, row.r12...)
		ix.dispOff = append(ix.dispOff, int32(len(ix.dispRule)))
		for _, e := range row.entries {
			ix.flagsMat[int(e.rule)*ns+slot] = e.flags
		}
	}
}

// flags returns the rowG1|rowG2 match flags of (rule, slot) in O(1).
func (ix *matchIndex) flags(rule int32, slot int) uint8 {
	return ix.flagsMat[int(rule)*ix.flagStride+slot]
}

// bumpSlot adds delta to every tally the slot's state participates in.
func (ix *matchIndex) bumpSlot(slot int32, delta int64) {
	o := ix.dispOff[3*slot : 3*slot+4]
	for _, i := range ix.dispRule[o[0]:o[1]] {
		ix.m1[i] += delta
	}
	for _, i := range ix.dispRule[o[1]:o[2]] {
		ix.m2[i] += delta
	}
	for _, i := range ix.dispRule[o[2]:o[3]] {
		ix.m12[i] += delta
	}
}

// occBumpSlot adds delta to the occupied-species tallies of the slot's
// rules.
func (ix *matchIndex) occBumpSlot(slot int32, delta int64) {
	o := ix.dispOff[3*slot : 3*slot+3]
	for _, i := range ix.dispRule[o[0]:o[1]] {
		ix.occ1[i] += delta
	}
	for _, i := range ix.dispRule[o[1]:o[2]] {
		ix.occ2[i] += delta
	}
}

// apply is the population mutation hook: one count delta in, tally and
// tracker updates out.
func (ix *matchIndex) apply(slot int32, s bitmask.State, delta int64) {
	if delta == 0 {
		return
	}
	if int(slot) >= ix.nSlots || ix.compactGen != ix.pop.compactGen {
		ix.syncSlots()
	}
	ix.bumpSlot(slot, delta)
	if now := ix.pop.cnt[slot]; now == 0 {
		ix.occBumpSlot(slot, -1)
	} else if now == delta {
		ix.occBumpSlot(slot, 1)
	}
	for _, t := range ix.trackers {
		if t.match[slot] != 0 {
			t.count += delta
			ix.trackersMoved = true
		}
	}
}

// track registers a guard for incremental counting.
func (ix *matchIndex) track(name string, f bitmask.Formula) *Tracker {
	ix.syncSlots()
	t := &Tracker{Name: name, guard: bitmask.Compile(f)}
	for slot, s := range ix.pop.keys {
		t.extend(s)
		t.count += int64(t.match[slot]) * ix.pop.cnt[slot]
	}
	ix.trackers = append(ix.trackers, t)
	return t
}

// matchingPairs returns the number of ordered pairs of distinct agents
// matching rule i.
func (ix *matchIndex) matchingPairs(i int) int64 {
	return ix.m1[i]*ix.m2[i] - ix.m12[i]
}

// syncCaches revalidates the slot-keyed caches after any external table
// reshape (a compaction triggered through the public API, or new species).
func (ix *matchIndex) syncCaches() {
	pop := ix.pop
	if ix.compactGen != pop.compactGen || ix.nSlots != len(pop.keys) {
		ix.syncSlots()
	}
	if ix.transGen != pop.compactGen || ix.transSlots != len(pop.keys) {
		ix.rebuildTrans()
	}
}

func (ix *matchIndex) rebuildTrans() {
	pop := ix.pop
	s := len(pop.keys)
	need := len(ix.p.Set.Rules) * s * s
	ix.transSlots = s
	ix.transGen = pop.compactGen
	if need > transCacheLimit {
		ix.trans = nil
		return
	}
	if cap(ix.trans) < need {
		ix.trans = make([]int64, need)
	} else {
		ix.trans = ix.trans[:need]
	}
	for i := range ix.trans {
		ix.trans[i] = transUnset
	}
}

// fire applies rule → (slot1, slot2) at the species level, going through
// the transition cache when possible. A participant whose state is
// unchanged by the rule needs no update at all: the −1/+1 on its slot
// cancels exactly through counts, tallies, trackers, and the sampler
// alike.
func (ix *matchIndex) fire(rule, slot1, slot2 int32) {
	pop := ix.pop
	var t1, t2 int32
	ci := -1
	// Slots born after the last rebuild (outputs of earlier firings in the
	// same batch) are outside the cache layout; they take the slow path
	// until syncCaches resizes it.
	if s := int32(ix.transSlots); ix.trans != nil && slot1 < s && slot2 < s {
		ci = int((rule*s+slot1)*s + slot2)
		if packed := ix.trans[ci]; packed != transUnset {
			t1, t2 = int32(packed>>32), int32(packed&0xffffffff)
			if t1 != slot1 {
				pop.addSlot(slot1, -1)
				pop.addSlot(t1, 1)
			}
			if t2 != slot2 {
				pop.addSlot(slot2, -1)
				pop.addSlot(t2, 1)
			}
			return
		}
	}
	rl := ix.p.Rule(int(rule))
	ns1, ns2 := rl.Apply(pop.keys[slot1], pop.keys[slot2])
	t1 = pop.slotFor(ns1)
	t2 = pop.slotFor(ns2)
	// slotFor may have grown the table, invalidating the cache layout; in
	// that case skip the store — the next syncCaches rebuilds the cache.
	if ci >= 0 && ix.transSlots == len(pop.keys) {
		ix.trans[ci] = int64(t1)<<32 | int64(t2)
	}
	if t1 != slot1 {
		pop.addSlot(slot1, -1)
		pop.addSlot(t1, 1)
	}
	if t2 != slot2 {
		pop.addSlot(slot2, -1)
		pop.addSlot(t2, 1)
	}
}

// fireForcedMatching executes one uniformly chosen matching (rule, ordered
// pair) event, conditioned on the interaction firing, skipping RNG draws
// whose outcome is forced: the rule pick when exactly one rule has matching
// pairs, and the participant picks when their guard has exactly one
// occupied species (occ1/occ2). Shared by BatchRunner (every firing) and
// AggregateRunner (its sparse-regime fallback). pairsW is caller-owned
// scratch of length #rules; the fired rule's index is returned so callers
// can keep their own accounting.
func (ix *matchIndex) fireForcedMatching(rng *RNG, pairsW []float64) int {
	// Rule pick, probability ∝ weight × matching pairs. With a single
	// active rule the pick is certain and the Float64 draw is skipped.
	var total float64
	active, nActive := 0, 0
	for i := range pairsW {
		pairs := ix.matchingPairs(i)
		v := 0.0
		if pairs > 0 {
			nActive++
			active = i
			v = ix.p.ruleWeightF[i] * float64(pairs)
		}
		pairsW[i] = v
		total += v
	}
	idx := active
	if nActive > 1 {
		pick := rng.Float64() * total
		idx = -1
		for i, v := range pairsW {
			pick -= v
			if pick < 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(pairsW) - 1
		}
	}
	rule := int32(idx)

	// Initiator pick, weight cnt(s)·(m2 − [G2(s)]). With a single occupied
	// G1 species all weight sits on one slot: find it without drawing.
	pop := ix.pop
	m2 := ix.m2[idx]
	var target int64
	byDraw := ix.occ1[idx] > 1
	if byDraw {
		target = rng.Int63n(ix.matchingPairs(idx))
	}
	slot1 := int32(-1)
	var g2s1 int64
	for slot := range pop.keys {
		f := ix.flags(rule, slot)
		if f&rowG1 == 0 || pop.cnt[slot] == 0 {
			continue
		}
		var b int64
		if f&rowG2 != 0 {
			b = 1
		}
		if !byDraw {
			slot1 = int32(slot)
			g2s1 = b
			break
		}
		w := pop.cnt[slot] * (m2 - b)
		if target < w {
			slot1 = int32(slot)
			g2s1 = b
			break
		}
		target -= w
	}
	if slot1 < 0 {
		panic("engine: initiator sampling walked off the table")
	}

	// Responder pick among G2-matchers, excluding the initiator agent.
	avail := m2 - g2s1
	byDraw = ix.occ2[idx] > 1
	var t2 int64
	if byDraw {
		t2 = rng.Int63n(avail)
	}
	slot2 := int32(-1)
	for slot := range pop.keys {
		if ix.flags(rule, slot)&rowG2 == 0 || pop.cnt[slot] == 0 {
			continue
		}
		w := pop.cnt[slot]
		if int32(slot) == slot1 {
			w -= g2s1
		}
		if w <= 0 {
			continue
		}
		if !byDraw || t2 < w {
			slot2 = int32(slot)
			break
		}
		t2 -= w
	}
	if slot2 < 0 {
		panic("engine: responder sampling walked off the table")
	}
	ix.fire(rule, slot1, slot2)
	return idx
}

// resync recomputes every tally from a full scan. Only used by tests to
// cross-check the incremental path; the simulation never needs it.
func (ix *matchIndex) resync() {
	clear(ix.m1)
	clear(ix.m2)
	clear(ix.m12)
	clear(ix.occ1)
	clear(ix.occ2)
	ix.syncSlots()
	for slot := 0; slot < ix.nSlots; slot++ {
		if k := ix.pop.cnt[slot]; k > 0 {
			ix.bumpSlot(int32(slot), k)
			ix.occBumpSlot(int32(slot), 1)
		}
	}
	for _, t := range ix.trackers {
		t.count = 0
		for slot := range ix.pop.keys {
			t.count += int64(t.match[slot]) * ix.pop.cnt[slot]
		}
	}
}
