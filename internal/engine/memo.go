package engine

import "math/bits"

// pairMemo caches interaction outcomes at the species level for one Runner:
// (picked group, initiator species, responder species) → (fired rule,
// successor species). An outcome depends only on those three values, so a
// hit replaces guard matching, rule application and state interning with
// one probe of an open-addressed table. The table starts small, doubles
// while it is at most half full, and is cleared once it would outgrow
// maxMemoSlots (384 KiB) — a bounded cache sized to what a protocol
// actually reaches (hundreds of outcomes for a framework leaf), not to the
// G×S×S product of its groups and species. A state-rich protocol such as
// gs18leader keeps minting species and cycles through the table; a larger
// cap bought it fewer misses but cost more in cache misses on every probe.
type pairMemo struct {
	slots []memoSlot
	shift uint // 64 − log2(len(slots))
	used  int
}

// memoSlot is one cached outcome.
type memoSlot struct {
	key    uint64 // memoKey(initiator, responder); 0 marks an empty slot
	group  int32
	rule   int32  // fired rule, or -1 when no rule of the group matches
	na, nb uint32 // successor species of initiator and responder
}

const (
	minMemoSlots = 1 << 8
	maxMemoSlots = 1 << 14
)

// memoKey packs a species pair; the +1 keeps every key non-zero.
func memoKey(a, b uint32) uint64 { return uint64(a) + 1 | uint64(b)<<32 }

// home returns the first slot probed for (g, key).
func (m *pairMemo) home(g int32, key uint64) uint64 {
	return ((key + uint64(uint32(g))*0x9e3779b97f4a7c15) * 0xd6e8feb86659fd93) >> m.shift
}

// find returns the slot holding (g, key), or the empty slot where it
// would go (key 0).
func (m *pairMemo) find(g int32, key uint64) *memoSlot {
	mask := uint64(len(m.slots) - 1)
	for h := m.home(g, key); ; h = (h + 1) & mask {
		e := &m.slots[h]
		if e.key == key && e.group == g || e.key == 0 {
			return e
		}
	}
}

// insert records an outcome absent from the table in p, the empty slot
// find returned for it, and returns the slot that holds it.
func (m *pairMemo) insert(p *memoSlot, e memoSlot) *memoSlot {
	if 2*(m.used+1) > len(m.slots) {
		if len(m.slots) < maxMemoSlots {
			m.resize(2 * len(m.slots))
		} else {
			m.reset()
		}
		p = m.find(e.group, e.key)
	}
	*p = e
	m.used++
	return p
}

// reset empties the table, allocating it on first use.
func (m *pairMemo) reset() {
	if m.slots == nil {
		m.resize(minMemoSlots)
		return
	}
	clear(m.slots)
	m.used = 0
}

// resize rehashes every cached outcome into a table of k slots (a power of
// two).
func (m *pairMemo) resize(k int) {
	old := m.slots
	m.slots = make([]memoSlot, k)
	m.shift = uint(64 - bits.TrailingZeros(uint(k)))
	m.used = 0
	for _, e := range old {
		if e.key != 0 {
			*m.find(e.group, e.key) = e
			m.used++
		}
	}
}
