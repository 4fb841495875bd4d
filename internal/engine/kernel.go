package engine

import (
	"popkit/internal/bitmask"
	"popkit/internal/obs"
)

// Kernel is the seam between a driver and the kernel simulating its
// population. The dense Runner and the CountedRunner implement it, so a
// driver picks one kernel when it is built and needs no kind switch
// afterwards.
type Kernel interface {
	// Track registers an incremental count of agents matching f.
	Track(name string, f bitmask.Formula) *Tracker
	// RunTracked advances until cond holds or maxRounds elapses, returning
	// the parallel time consumed and whether cond was met. With trackers
	// registered, cond is re-evaluated only after a tracked count moves,
	// so it must read trackers (or state derived from them); with none it
	// runs after every step.
	RunTracked(cond func() bool, maxRounds float64) (rounds float64, ok bool)
	// Rounds returns elapsed parallel time (interactions / n).
	Rounds() float64
	// InteractionCount returns the scheduler activations simulated so far,
	// leapt non-firing ones included.
	InteractionCount() uint64
	// SetStats attaches a per-rule firing tally (nil detaches).
	SetStats(s *obs.RuleStats)
	// HistogramInto snapshots the population into dst (cleared first).
	HistogramInto(dst map[bitmask.State]int64)
}

var (
	_ Kernel = (*Runner)(nil)
	_ Kernel = (*CountedRunner)(nil)
)

// A Tracker incrementally maintains the number of agents matching a guard,
// so stop conditions do not rescan the population every round. Every
// kernel's Track returns one.
type Tracker struct {
	Name  string
	guard bitmask.Guard
	count int64
	// match[i] is 1 when species i satisfies the guard: a species id of
	// the dense population, or a slot of the counted one. Kernels extend
	// it as their populations grow new species.
	match []uint8
}

// Count returns the current number of matching agents.
func (t *Tracker) Count() int64 { return t.count }

// extend appends the guard's verdict on s, the population's next species.
func (t *Tracker) extend(s bitmask.State) {
	var m uint8
	if t.guard.Match(s) {
		m = 1
	}
	t.match = append(t.match, m)
}
