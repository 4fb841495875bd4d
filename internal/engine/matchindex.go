package engine

import (
	"popkit/internal/bitmask"
)

// This file implements the incremental match-count machinery shared by the
// counted runners. The historical kernel recomputed the per-rule tallies
// m1/m2/m12 with a full #species × #rules rescan before every leap; the
// matchIndex maintains them as running sums instead. Per-state guard
// evaluations happen once — the first time a state is seen — and are
// memoized as dispatch rows, so the leap loop itself touches only integer
// adds.
//
// Counts reach the index two ways. A firing whose (rule, initiator slot,
// responder slot) is in the transition cache applies its compiled effect:
// the net slot moves, the net tally deltas and the net tracker deltas,
// each summed once when the entry was first resolved, in one pass. Every
// other count change (cache misses, slots outside the cache layout, the
// aggregate kernel's per-run deltas) goes through Counted.addSlot, which
// calls the index that owns the population directly, one slot at a time.
// Both paths leave the same counts, tallies, occupancy, trackers and dirty
// flag behind, so the RNG stream cannot tell them apart.

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
	// correction in the ordered-pair count m1·m2 − m12). The three are
	// consecutive views of one tally array, so a compiled effect updates
	// them through a single (index, delta) list.
	tally       []int64
	m1, m2, m12 []int64

	// occ1[i], occ2[i] count occupied species (not agents) matching rule
	// i's guards. When a guard has exactly one occupied species the
	// corresponding participant pick is deterministic, and the leap step
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

	// totalPairs is n(n−1), the number of ordered pairs of distinct agents.
	totalPairs float64

	// Rule-pick weights of the current leap, filled by stepProbability:
	// pairsW[i] is rule i's weight × matching pairs, pickTotal their sum,
	// pickActive the last rule with pairs and pickN how many rules have
	// any.
	pairsW     []float64
	pickTotal  float64
	pickActive int
	pickN      int

	// trans caches rule firings at the species level: (rule, initiator
	// slot, responder slot) → offset of the firing's compiled effect in
	// fx, so the hot loop applies a firing without re-evaluating updates,
	// hashing states or walking dispatch rows. Rebuilt whenever the slot
	// table changes shape or a tracker is registered. fx holds at most one
	// effect per trans entry, so transCacheLimit bounds both.
	trans      []int32
	fx         []int32
	transSlots int
	transGen   uint64
}

// transUnset marks an empty transition-cache entry.
const transUnset = int32(-1)

// A compiled effect is stored in fx at its offset o as a header followed
// by three lists:
//
//	fx[o+fxMoved]   1 when a move touches a tracked slot
//	fx[o+fxNSlot]   k touched slots, listed first as (slot, net, low) triples
//	fx[o+fxNTally]  t (tally index, delta) pairs, listed next
//	fx[o+fxNTrack]  r (tracker index, delta) pairs, listed last
//
// low is the lowest running delta the one-move-at-a-time sequence
// (initiator off and on, then responder off and on) reaches on that slot:
// a count c hits zero on the way exactly when c+low == 0.
const (
	fxMoved = iota
	fxNSlot
	fxNTally
	fxNTrack
	fxHeader
)

// transCacheLimit bounds the dense cache; protocols with huge live state
// spaces fall back to applying rules directly.
const transCacheLimit = 1 << 16

// newMatchIndex builds the index, performs the single full scan that seeds
// the tallies, and makes itself the population's index. A population can
// feed at most one index: a second would silently desynchronize the
// first runner's tallies, so attaching one panics instead.
func newMatchIndex(p *Protocol, pop *Counted) *matchIndex {
	if p.Set.HasOrderedGroups() {
		panic("engine: counted runners do not support ordered rule groups")
	}
	if pop.ix != nil {
		panic("engine: population already driven by another runner")
	}
	nr := len(p.Set.Rules)
	tally := make([]int64, 3*nr)
	n := float64(pop.n)
	ix := &matchIndex{
		p: p, pop: pop, totalPairs: n * (n - 1),
		tally: tally, m1: tally[:nr], m2: tally[nr : 2*nr], m12: tally[2*nr:],
		occ1: make([]int64, nr), occ2: make([]int64, nr),
		rows:   make(map[bitmask.State]*stateRow),
		pairsW: make([]float64, nr),
	}
	ix.syncSlots()
	for slot := 0; slot < ix.nSlots; slot++ {
		if k := pop.cnt[slot]; k > 0 {
			ix.bumpSlot(int32(slot), k)
			ix.occBumpSlot(int32(slot), 1)
		}
	}
	pop.ix = ix
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

// apply takes one count change from Counted.addSlot (the slot's count has
// already moved by delta) and updates the tallies, occupancy and trackers.
func (ix *matchIndex) apply(slot int32, delta int64) {
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
	// Compiled effects carry per-tracker deltas: drop them so every firing
	// is recompiled against the new tracker set.
	ix.rebuildTrans()
	return t
}

// matchingPairs returns the number of ordered pairs of distinct agents
// matching rule i.
func (ix *matchIndex) matchingPairs(i int) int64 {
	return ix.m1[i]*ix.m2[i] - ix.m12[i]
}

// stepProbability returns the probability that a single scheduler
// activation fires some rule. It counts each rule's matching pairs once
// and keeps the rule-pick weights for fireForcedMatching, which must run
// before any count changes.
func (ix *matchIndex) stepProbability() float64 {
	totalPairs := ix.totalPairs
	var q, total float64
	active, nActive := 0, 0
	for i := range ix.pairsW {
		pairs := ix.matchingPairs(i)
		v := 0.0
		// A rule without pairs would add +0 to q and to total; skipping
		// it leaves both bit for bit unchanged.
		if pairs > 0 {
			q += ix.p.ruleWeightN[i] * float64(pairs) / totalPairs
			nActive++
			active = i
			v = ix.p.ruleWeightF[i] * float64(pairs)
		}
		ix.pairsW[i] = v
		total += v
	}
	ix.pickTotal, ix.pickActive, ix.pickN = total, active, nActive
	return q
}

// syncCaches revalidates the slot-keyed caches after any external table
// reshape (a compaction triggered through the public API, or new species).
// The transition cache is only ever laid out right after syncSlots, so
// while it matches the table the dispatch arrays do too.
func (ix *matchIndex) syncCaches() {
	if ix.transGen != ix.pop.compactGen || ix.transSlots != len(ix.pop.keys) {
		ix.rebuildTrans()
	}
}

// rebuildTrans revalidates the dispatch arrays, then empties the
// transition cache and its compiled effects and lays the cache out for
// the current slot table.
func (ix *matchIndex) rebuildTrans() {
	ix.syncSlots()
	pop := ix.pop
	s := len(pop.keys)
	need := len(ix.p.Set.Rules) * s * s
	ix.transSlots = s
	ix.transGen = pop.compactGen
	ix.fx = ix.fx[:0]
	if need > transCacheLimit {
		ix.trans = nil
		return
	}
	if cap(ix.trans) < need {
		ix.trans = make([]int32, need)
	} else {
		ix.trans = ix.trans[:need]
	}
	for i := range ix.trans {
		ix.trans[i] = transUnset
	}
}

// fire applies rule → (slot1, slot2) at the species level. A cached
// firing applies its compiled effect; a miss resolves the rule, compiles
// the effect when the cache layout still covers every slot involved, and
// applies it. Only firings the cache cannot hold move counts one slot at a
// time. A participant whose state is unchanged by the rule needs no update
// at all: the −1/+1 on its slot cancels exactly through counts, tallies,
// trackers, and the sampler alike.
func (ix *matchIndex) fire(rule, slot1, slot2 int32) {
	pop := ix.pop
	ci := -1
	// Slots born after the last rebuild (outputs of earlier firings in the
	// same batch) are outside the cache layout; they take the slow path
	// until syncCaches resizes it.
	if s := int32(ix.transSlots); ix.trans != nil && slot1 < s && slot2 < s {
		ci = int((rule*s+slot1)*s + slot2)
		if o := ix.trans[ci]; o != transUnset {
			ix.applyEffect(o)
			return
		}
	}
	rl := ix.p.Rule(int(rule))
	ns1, ns2 := rl.Apply(pop.keys[slot1], pop.keys[slot2])
	t1 := pop.slotFor(ns1)
	t2 := pop.slotFor(ns2)
	// slotFor may have grown the table, invalidating the cache layout; in
	// that case skip the store — the next syncCaches rebuilds the cache.
	if ci >= 0 && ix.transSlots == len(pop.keys) {
		o := ix.compile(slot1, slot2, t1, t2)
		ix.trans[ci] = o
		ix.applyEffect(o)
		return
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

// compile appends to fx the effect of a firing that moves the initiator
// from slot1 to t1 and the responder from slot2 to t2, and returns its
// offset. Every slot involved must lie inside the dispatch arrays and the
// trackers' match vectors.
func (ix *matchIndex) compile(slot1, slot2, t1, t2 int32) int32 {
	o := len(ix.fx)
	var header [fxHeader]int32
	ix.fx = append(ix.fx, header[:]...)
	// Touched slots: replay the one-move-at-a-time sequence.
	at := len(ix.fx)
	move := func(slot, d int32) {
		for _, tr := range ix.trackers {
			if tr.match[slot] != 0 {
				ix.fx[o+fxMoved] = 1
			}
		}
		for i := at; i < len(ix.fx); i += 3 {
			if ix.fx[i] == slot {
				ix.fx[i+1] += d
				ix.fx[i+2] = min(ix.fx[i+2], ix.fx[i+1])
				return
			}
		}
		ix.fx = append(ix.fx, slot, d, d)
	}
	if t1 != slot1 {
		move(slot1, -1)
		move(t1, 1)
	}
	if t2 != slot2 {
		move(slot2, -1)
		move(t2, 1)
	}
	end := len(ix.fx)
	ix.fx[o+fxNSlot] = int32(end-at) / 3
	// Net tally deltas over the touched slots' dispatch rows, then net
	// tracker deltas; pairs that cancel to zero are dropped.
	nr := int32(len(ix.m1))
	for i := at; i < end; i += 3 {
		slot, net := ix.fx[i], ix.fx[i+1]
		off := ix.dispOff[3*slot : 3*slot+4]
		for part := int32(0); part < 3 && net != 0; part++ {
			for _, r := range ix.dispRule[off[part]:off[part+1]] {
				ix.fx = addOp(ix.fx, end, part*nr+r, net)
			}
		}
	}
	ix.fx = dropZeroOps(ix.fx, end)
	ix.fx[o+fxNTally] = int32(len(ix.fx)-end) / 2
	trackAt := len(ix.fx)
	for ti, tr := range ix.trackers {
		var d int32
		for i := at; i < end; i += 3 {
			d += ix.fx[i+1] * int32(tr.match[ix.fx[i]])
		}
		if d != 0 {
			ix.fx = append(ix.fx, int32(ti), d)
		}
	}
	ix.fx[o+fxNTrack] = int32(len(ix.fx)-trackAt) / 2
	return int32(o)
}

// addOp adds delta to the (index, delta) pair for idx in ops[at:],
// appending the pair if absent.
func addOp(ops []int32, at int, idx, delta int32) []int32 {
	for i := at; i < len(ops); i += 2 {
		if ops[i] == idx {
			ops[i+1] += delta
			return ops
		}
	}
	return append(ops, idx, delta)
}

// dropZeroOps removes the pairs of ops[at:] whose delta summed to zero.
func dropZeroOps(ops []int32, at int) []int32 {
	out := at
	for i := at; i < len(ops); i += 2 {
		if ops[i+1] != 0 {
			ops[out], ops[out+1] = ops[i], ops[i+1]
			out += 2
		}
	}
	return ops[:out]
}

// applyEffect applies the compiled effect at offset o in one pass. It
// leaves exactly what the one-move-at-a-time path would: the same counts,
// tallies and tracker counts; occupancy bumped only for slots that empty
// or first fill; dirty set when a count touches zero on the way; the
// tracker-moved bit set when a move touched a tracked slot.
func (ix *matchIndex) applyEffect(o int32) {
	fx := ix.fx[o:]
	k := int(fx[fxNSlot])
	if k == 0 {
		return
	}
	pop := ix.pop
	pop.aliasOK = false
	slots := fx[fxHeader : fxHeader+3*k]
	for i := 0; i < len(slots); i += 3 {
		slot, low := slots[i], int64(slots[i+2])
		c := pop.cnt[slot]
		switch {
		case c+low < 0:
			panic("engine: species count went negative")
		case c+low == 0:
			pop.dirty = true
		}
		now := c + int64(slots[i+1])
		pop.cnt[slot] = now
		switch {
		case c == 0 && now != 0:
			ix.occBumpSlot(slot, 1)
		case c != 0 && now == 0:
			ix.occBumpSlot(slot, -1)
		}
	}
	ops := fx[fxHeader+3*k:]
	nt := 2 * int(fx[fxNTally])
	tally := ix.tally
	for i := 0; i < nt; i += 2 {
		tally[ops[i]] += int64(ops[i+1])
	}
	if fx[fxMoved] == 0 {
		return
	}
	ix.trackersMoved = true
	ops = ops[nt : nt+2*int(fx[fxNTrack])]
	for i := 0; i < len(ops); i += 2 {
		ix.trackers[ops[i]].count += int64(ops[i+1])
	}
}

// fireForcedMatching executes one uniformly chosen matching (rule, ordered
// pair) event, conditioned on the interaction firing, skipping RNG draws
// whose outcome is forced: the rule pick when exactly one rule has matching
// pairs, and the participant picks when their guard has exactly one
// occupied species (occ1/occ2). CountedRunner's leap step fires through
// it. It reads the rule-pick weights of the stepProbability call just
// before it; the fired rule's index is returned so callers can keep their
// own accounting.
func (ix *matchIndex) fireForcedMatching(rng *RNG) int {
	// Rule pick, probability ∝ weight × matching pairs. With a single
	// active rule the pick is certain and the Float64 draw is skipped.
	idx := ix.pickActive
	if ix.pickN > 1 {
		pick := rng.Float64() * ix.pickTotal
		idx = -1
		for i, v := range ix.pairsW {
			pick -= v
			if pick < 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(ix.pairsW) - 1
		}
	}
	rule := int32(idx)

	// Both participant picks walk the fired rule's row of the flags
	// matrix, which covers every slot (syncCaches ran this leap).
	pop := ix.pop
	row := ix.flagsMat[idx*ix.flagStride : (idx+1)*ix.flagStride]
	cnt := pop.cnt[:len(row)]

	// Initiator pick, weight cnt(s)·(m2 − [G2(s)]). With a single occupied
	// G1 species all weight sits on one slot: find it without drawing.
	m2 := ix.m2[idx]
	var target int64
	byDraw := ix.occ1[idx] > 1
	if byDraw {
		target = rng.Int63n(ix.matchingPairs(idx))
	}
	slot1 := int32(-1)
	var g2s1 int64
	for slot, f := range row {
		if f&rowG1 == 0 || cnt[slot] == 0 {
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
		w := cnt[slot] * (m2 - b)
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
	for slot, f := range row {
		if f&rowG2 == 0 || cnt[slot] == 0 {
			continue
		}
		w := cnt[slot]
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
	clear(ix.tally)
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
