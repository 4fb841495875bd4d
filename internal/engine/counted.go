package engine

import (
	"sort"

	"popkit/internal/bitmask"
)

// Counted is a population represented as a species vector: a count per
// occupied state. It is exact (it simulates the same Markov chain as Dense
// under the sequential scheduler) but scales to populations of 10^9 agents
// for protocols whose occupied-state count stays small — all the paper's
// constant-state protocols. Its runners can also leap over stretches of
// non-reactive interactions in O(1) per stretch, which makes slow baselines
// such as the 4-state exact-majority protocol (Θ(n log n) rounds) feasible
// to measure.
//
// Internally the species table is a slot array: keys[i] is the state of
// slot i and cnt[i] its count, with index mapping states back to slots.
// Slot order is the order the runners' pick walks scan (sorted at
// construction, then insertion order), so it is part of every counted
// kernel's stream. Slots are only remapped by compact(), which bumps
// compactGen so runners can invalidate their slot-keyed caches; appends
// keep existing slot ids stable.
type Counted struct {
	n     int64
	keys  []bitmask.State         // slot → state
	cnt   []int64                 // slot → count (may be 0 until compacted)
	index map[bitmask.State]int32 // state → slot
	dirty bool                    // some slot has a zero count

	// compactGen is bumped whenever compact() remaps slots. Runners key
	// their per-slot caches on it.
	compactGen uint64

	// alias is a Walker alias table over slot counts (see alias.go),
	// rebuilt lazily by sampleSlotAlias when any count changed since the
	// last build (aliasOK false). It serves draw-heavy static-weight
	// consumers — the aggregate step's per-agent composition path — at
	// O(1) per draw.
	alias   aliasTable
	aliasOK bool

	// ix is the match index of the runner driving this population, or nil.
	// addSlot reports every count change to it directly, so the runner's
	// per-rule tallies and tracker counts stay exact without rescans; the
	// index's compiled firing effects update counts and tallies together.
	ix *matchIndex
}

// NewCounted builds a counted population from a state→count table.
func NewCounted(counts map[bitmask.State]int64) *Counted {
	c := &Counted{
		index: make(map[bitmask.State]int32, len(counts)),
	}
	for s, k := range counts {
		if k < 0 {
			panic("engine: negative species count")
		}
		if k == 0 {
			continue
		}
		c.keys = append(c.keys, s)
		c.n += k
	}
	if c.n < 2 {
		panic("engine: population needs at least 2 agents")
	}
	c.sortKeys()
	c.cnt = make([]int64, len(c.keys))
	for i, s := range c.keys {
		c.index[s] = int32(i)
		c.cnt[i] = counts[s]
	}
	return c
}

func (c *Counted) sortKeys() {
	sort.Slice(c.keys, func(i, j int) bool {
		a, b := c.keys[i], c.keys[j]
		if a.Hi != b.Hi {
			return a.Hi < b.Hi
		}
		return a.Lo < b.Lo
	})
}

// N returns the population size.
func (c *Counted) N() int { return int(c.n) }

// N64 returns the population size as int64 (counted populations may exceed
// the range convenient for int arithmetic on 32-bit platforms).
func (c *Counted) N64() int64 { return c.n }

// NumSpecies returns the number of occupied states.
func (c *Counted) NumSpecies() int {
	c.compact()
	return len(c.keys)
}

// CountState returns the number of agents in exactly state s.
func (c *Counted) CountState(s bitmask.State) int64 {
	if i, ok := c.index[s]; ok {
		return c.cnt[i]
	}
	return 0
}

// Count returns the number of agents matching the guard.
func (c *Counted) Count(g bitmask.Guard) int64 {
	var total int64
	for i, s := range c.keys {
		if c.cnt[i] > 0 && g.Match(s) {
			total += c.cnt[i]
		}
	}
	return total
}

// CountFormula counts agents satisfying the formula.
func (c *Counted) CountFormula(f bitmask.Formula) int64 {
	return c.Count(bitmask.Compile(f))
}

// ForEach visits every occupied state with its count.
func (c *Counted) ForEach(fn func(s bitmask.State, count int64)) {
	for i, s := range c.keys {
		if c.cnt[i] > 0 {
			fn(s, c.cnt[i])
		}
	}
}

// Histogram returns a copy of the species table.
func (c *Counted) Histogram() map[bitmask.State]int64 {
	out := make(map[bitmask.State]int64, len(c.keys))
	c.HistogramInto(out)
	return out
}

// HistogramInto clears dst and fills it with the species table. Trajectory
// collectors that snapshot the population every few rounds use it to reuse
// one map across the whole sweep instead of allocating per sample.
func (c *Counted) HistogramInto(dst map[bitmask.State]int64) {
	clear(dst)
	for i, s := range c.keys {
		if c.cnt[i] > 0 {
			dst[s] = c.cnt[i]
		}
	}
}

// NumSlots returns the size of the slot table including not-yet-compacted
// zero-count entries. Runners size their per-slot caches from it.
func (c *Counted) numSlots() int { return len(c.keys) }

// compact drops zero-count slots when the table has grown stale. Slot ids
// are remapped, so compactGen is bumped and the sampler invalidated.
func (c *Counted) compact() {
	if !c.dirty {
		return
	}
	keys := c.keys[:0]
	cnt := c.cnt[:0]
	for i, s := range c.keys {
		if c.cnt[i] > 0 {
			keys = append(keys, s)
			cnt = append(cnt, c.cnt[i])
		} else {
			delete(c.index, s)
		}
	}
	c.keys, c.cnt = keys, cnt
	for i, s := range c.keys {
		c.index[s] = int32(i)
	}
	c.dirty = false
	c.compactGen++
	c.aliasOK = false
}

// slotFor returns the slot of state s, registering a fresh slot if the
// state has never been occupied. Appends keep existing slot ids valid.
func (c *Counted) slotFor(s bitmask.State) int32 {
	if i, ok := c.index[s]; ok {
		return i
	}
	i := int32(len(c.keys))
	c.keys = append(c.keys, s)
	c.cnt = append(c.cnt, 0)
	c.index[s] = i
	c.aliasOK = false
	return i
}

// addSlot adjusts the count of slot by delta. It keeps the alias sampler
// and the driving runner's incremental tallies in sync.
func (c *Counted) addSlot(slot int32, delta int64) {
	now := c.cnt[slot] + delta
	if now < 0 {
		panic("engine: species count went negative")
	}
	c.cnt[slot] = now
	if now == 0 {
		c.dirty = true
	}
	c.aliasOK = false
	if c.ix != nil {
		c.ix.apply(slot, delta)
	}
}

// sampleSlotAlias returns a slot drawn proportionally to counts through
// the lazily rebuilt alias table. It costs two RNG draws per sample
// regardless of the species count, with the O(S) table build amortized
// over every draw between count mutations.
func (c *Counted) sampleSlotAlias(rng *RNG) int32 {
	if !c.aliasOK {
		c.alias.build(c.cnt)
		c.aliasOK = true
	}
	return c.alias.sample(rng)
}
