package engine

import (
	"popkit/internal/bitmask"
)

// Dense is a population holding one explicit state per agent. It supports
// both scheduler models exactly and scales to ~10^7 agents.
//
// Agents are stored as uint32 species ids into an interned state table, so
// the Runner resolves interactions on ids through its pair memo and bulk
// writers touch each distinct state once instead of once per agent. The
// table never changes a state in place: an id names the same state until a
// compaction (which bumps gen) renumbers the live species.
type Dense struct {
	agents []uint32        // species id of each agent
	states []bitmask.State // species id → state
	ids    map[bitmask.State]uint32
	// gen counts compactions; runners key per-species caches on ids and
	// rebuild them when it moves.
	gen uint64
	// limit is the table size at which the next write compacts it.
	limit int

	perm    []int32  // scratch for random matchings, allocated lazily
	scratch []uint32 // scratch for tallies and remaps
}

// minTableLimit is the smallest table size that triggers a compaction;
// below it, dead species cost less than renumbering them.
const minTableLimit = 1 << 12

// unsetID marks an empty remap slot.
const unsetID = ^uint32(0)

// NewDense returns a population of n agents, all in the zero state.
func NewDense(n int) *Dense {
	if n < 2 {
		panic("engine: population needs at least 2 agents")
	}
	d := &Dense{
		agents: make([]uint32, n),
		ids:    make(map[bitmask.State]uint32, 16),
		limit:  minTableLimit,
	}
	d.intern(bitmask.State{})
	return d
}

// NewDenseInit returns a population of n agents where agent i starts in
// init(i).
func NewDenseInit(n int, init func(i int) bitmask.State) *Dense {
	d := NewDense(n)
	d.SetAll(func(i int, _ bitmask.State) bitmask.State { return init(i) })
	return d
}

// intern returns the species id of s, adding it to the table if new.
func (d *Dense) intern(s bitmask.State) uint32 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint32(len(d.states))
	d.states = append(d.states, s)
	d.ids[s] = id
	return id
}

// maybeCompact compacts the table once it has outgrown its limit and
// reports whether it did. Callers holding species ids must re-read them
// after a compaction.
func (d *Dense) maybeCompact() bool {
	if len(d.states) < d.limit {
		return false
	}
	d.compact()
	return true
}

// compact renumbers the species agents hold (in order of first holder) and
// drops the rest, so state-rich protocols that keep minting species do not
// grow the table without bound.
func (d *Dense) compact() {
	remap := d.scratchIDs(len(d.states))
	states := make([]bitmask.State, 0, len(d.states)/2+1)
	for i, id := range d.agents {
		nid := remap[id]
		if nid == unsetID {
			nid = uint32(len(states))
			states = append(states, d.states[id])
			remap[id] = nid
		}
		d.agents[i] = nid
	}
	d.states = states
	d.ids = make(map[bitmask.State]uint32, len(states))
	for id, s := range states {
		d.ids[s] = uint32(id)
	}
	d.gen++
	d.limit = max(2*len(states), minTableLimit)
}

// scratchIDs returns a reused slice of k entries, all unsetID.
func (d *Dense) scratchIDs(k int) []uint32 {
	if cap(d.scratch) < k {
		d.scratch = make([]uint32, k)
	}
	s := d.scratch[:k]
	for i := range s {
		s[i] = unsetID
	}
	return s
}

// tally returns the number of agents holding each species id, in a slice
// reused across calls.
func (d *Dense) tally() []uint32 {
	t := d.scratchIDs(len(d.states))
	clear(t)
	for _, id := range d.agents {
		t[id]++
	}
	return t
}

// N returns the population size.
func (d *Dense) N() int { return len(d.agents) }

// Agent returns the state of agent i.
func (d *Dense) Agent(i int) bitmask.State { return d.states[d.agents[i]] }

// SetAgent overwrites the state of agent i (initialization only; scheduler
// trackers are not adjusted).
func (d *Dense) SetAgent(i int, s bitmask.State) {
	d.maybeCompact()
	d.agents[i] = d.intern(s)
}

// SetAll sets every agent i to fn(i, s), where s is its current state,
// visiting agents in index order (initialization only, like SetAgent; fn
// must not touch the population). Consecutive agents given the same state
// share one table lookup, so inputs laid out in blocks cost one lookup per
// block.
func (d *Dense) SetAll(fn func(i int, s bitmask.State) bitmask.State) {
	d.maybeCompact()
	var last bitmask.State
	lastID := unsetID
	for i, id := range d.agents {
		s := fn(i, d.states[id])
		if lastID == unsetID || s != last {
			last, lastID = s, d.intern(s)
		}
		d.agents[i] = lastID
	}
}

// Remap replaces every agent's state s by fn(s, key(i)), visiting agents in
// index order (initialization and bulk assignment only, like SetAgent). The
// key labels agent i with a value in [0, keys) — a coin, a colour, a skip
// mark — and a nil key labels every agent 0. fn runs once per (species,
// label) pair some agent holds, so a bulk assignment costs one array lookup
// per agent rather than one state evaluation and table lookup. Neither key
// nor fn may touch the population.
func (d *Dense) Remap(keys int, key func(i int) int, fn func(s bitmask.State, k int) bitmask.State) {
	d.maybeCompact()
	remap := d.scratchIDs(len(d.states) * keys)
	for i, id := range d.agents {
		k := 0
		if key != nil {
			k = key(i)
		}
		slot := int(id)*keys + k
		nid := remap[slot]
		if nid == unsetID {
			nid = d.intern(fn(d.states[id], k))
			remap[slot] = nid
		}
		d.agents[i] = nid
	}
}

// Count returns the number of agents matching the guard.
func (d *Dense) Count(g bitmask.Guard) int {
	c := 0
	for id, k := range d.tally() {
		if k > 0 && g.Match(d.states[id]) {
			c += int(k)
		}
	}
	return c
}

// CountFormula counts agents satisfying the formula.
func (d *Dense) CountFormula(f bitmask.Formula) int {
	return d.Count(bitmask.Compile(f))
}

// ForEach visits every agent state.
func (d *Dense) ForEach(fn func(i int, s bitmask.State)) {
	for i, id := range d.agents {
		fn(i, d.states[id])
	}
}

// Histogram returns the multiset of states as a count map.
func (d *Dense) Histogram() map[bitmask.State]int64 {
	h := make(map[bitmask.State]int64, 16)
	d.HistogramInto(h)
	return h
}

// HistogramInto clears dst and fills it with the multiset of states.
// Trajectory collectors that snapshot the population every few rounds use
// it to reuse one map across the whole sweep instead of allocating per
// sample.
func (d *Dense) HistogramInto(dst map[bitmask.State]int64) {
	clear(dst)
	for id, k := range d.tally() {
		if k > 0 {
			dst[d.states[id]] += int64(k)
		}
	}
}

// ApplyAll applies the update to every agent matching the guard and returns
// how many were updated. This is the framework executor's bulk-assignment
// primitive; it bypasses interaction scheduling.
func (d *Dense) ApplyAll(g bitmask.Guard, u bitmask.Update) int {
	c := d.Count(g)
	d.Remap(1, nil, func(s bitmask.State, _ int) bitmask.State {
		if g.Match(s) {
			return u.Apply(s)
		}
		return s
	})
	return c
}
