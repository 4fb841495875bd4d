// Package qos is the service's admission-control layer: a cost model that
// predicts a job's wall-clock footprint before it runs, size classes
// (interactive / batch / whale) derived from that prediction, a per-tenant
// deficit-round-robin fair queue so one tenant's whales cannot starve
// another tenant's interactive jobs, and deadline derivation so a job's
// budget scales with its predicted cost instead of a flat timeout.
//
// The model combines three measured/analytic inputs:
//
//   - the kernel cost grid (results/BENCH_kernel.json): measured
//     ns-per-interaction per (runner tier, n) on the E11 exact-majority
//     workload, with a baked-in copy of the committed grid so the model
//     works without the file;
//   - the paper's expected-round bounds, which each counted entry of the
//     protocol catalogue carries as its prior — e.g. the DV12 4-state
//     exact-majority baseline converges in Θ(n·log n) rounds (Θ(n²·log n)
//     interactions), coalescence in Θ(n) rounds, approximate majority in
//     O(log n) rounds — clamped by the spec's max_rounds or max_iters
//     budget;
//   - the engine's three-tier runner selection (expt.SelectRunnerForSize),
//     so a job is priced on the kernel that will actually run it.
//
// Predictions self-correct: Observe feeds actual replica durations back
// into a per-tier EWMA multiplier, so a miscalibrated grid (different CPU,
// different protocol mix) converges onto real costs within a few jobs.
// Nothing in this package touches job *content*: admission, queueing, and
// deadlines decide when (and whether) a job runs, never what it computes,
// so byte-identity of the record streams is preserved by construction.
package qos

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"popkit/internal/catalog"
	"popkit/internal/expt"
)

// Class is a job's size class under the cost model.
type Class int

const (
	// ClassInteractive jobs are predicted to finish quickly (≤ the model's
	// InteractiveMax, default 1s); they are dispatched ahead of everything
	// else and keep being served during load shed and drain.
	ClassInteractive Class = iota
	// ClassBatch is the middle band: too slow for the interactive lane,
	// predicted under the whale threshold.
	ClassBatch
	// ClassWhale jobs are predicted at or above WhaleMin (default 30s) —
	// the paper's huge-n aggregate runs. They are capped in concurrency and
	// shed first under pressure.
	ClassWhale
)

func (c Class) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	case ClassWhale:
		return "whale"
	}
	return "unknown"
}

// Classes lists the size classes in dispatch-priority order.
func Classes() []Class { return []Class{ClassInteractive, ClassBatch, ClassWhale} }

// maxPredictSeconds clamps per-replica predictions: expected interactions
// for a Θ(n²·log n) protocol at n = 1e9 overflow a time.Duration, and no
// admission decision distinguishes "a month" from "a millennium".
const maxPredictSeconds = 30 * 24 * 3600

// gridRow is one measured point of the kernel cost surface.
type gridRow struct {
	Runner           string  `json:"runner"`
	N                float64 `json:"n"`
	NsPerInteraction float64 `json:"ns_per_interaction"`
}

// kernelFile is the subset of results/BENCH_kernel.json the model reads.
type kernelFile struct {
	Rows []gridRow `json:"rows"`
}

// defaultGrid is the committed BENCH_kernel.json surface, baked in so a
// server without the results file still prices jobs on measured numbers.
func defaultGrid() []gridRow {
	return []gridRow{
		{"dense", 1e4, 27.38},
		{"dense", 1e6, 63.46},
		{"batch", 1e4, 0.00296},
		{"batch", 1e6, 6.32},
		{"batch", 1e8, 10.35},
		{"batch", 1e9, 10.47},
		{"aggregate", 1e4, 2.70},
		{"aggregate", 1e6, 2.66},
		{"aggregate", 1e8, 0.838},
		{"aggregate", 1e9, 0.280},
	}
}

// ModelOptions configures NewModel. Zero values mean defaults.
type ModelOptions struct {
	// GridPath loads a measured kernel grid (results/BENCH_kernel.json
	// format) over the baked-in defaults. Empty uses the defaults alone.
	GridPath string
	// InteractiveMax is the largest predicted total cost still classed
	// interactive. Default 1s.
	InteractiveMax time.Duration
	// WhaleMin is the smallest predicted total cost classed whale.
	// Default 30s.
	WhaleMin time.Duration
}

// alpha is the EWMA weight of each new observation in the per-tier
// correction factor.
const alpha = 0.25

// Model predicts job cost from the kernel grid and the paper's
// expected-interaction bounds, self-correcting from observed durations.
// All methods are safe for concurrent use.
type Model struct {
	interactiveMax time.Duration
	whaleMin       time.Duration

	mu   sync.Mutex
	grid map[string][]gridRow // tier → rows sorted by N ascending
	corr map[string]float64   // tier → EWMA multiplier on predictions
}

// NewModel builds a model. A GridPath that exists but does not parse is an
// error; a missing file falls back to the baked-in grid silently (servers
// run fine without a results checkout).
func NewModel(opts ModelOptions) (*Model, error) {
	if opts.InteractiveMax <= 0 {
		opts.InteractiveMax = time.Second
	}
	if opts.WhaleMin <= 0 {
		opts.WhaleMin = 30 * time.Second
	}
	if opts.WhaleMin < opts.InteractiveMax {
		return nil, fmt.Errorf("qos: WhaleMin %v below InteractiveMax %v", opts.WhaleMin, opts.InteractiveMax)
	}
	m := &Model{
		interactiveMax: opts.InteractiveMax,
		whaleMin:       opts.WhaleMin,
		grid:           make(map[string][]gridRow),
		corr:           make(map[string]float64),
	}
	m.load(defaultGrid())
	if opts.GridPath != "" {
		raw, err := os.ReadFile(opts.GridPath)
		if err != nil {
			if !os.IsNotExist(err) {
				return nil, fmt.Errorf("qos: reading grid %s: %w", opts.GridPath, err)
			}
		} else {
			var kf kernelFile
			if err := json.Unmarshal(raw, &kf); err != nil {
				return nil, fmt.Errorf("qos: parsing grid %s: %w", opts.GridPath, err)
			}
			if len(kf.Rows) > 0 {
				m.grid = make(map[string][]gridRow)
				m.load(kf.Rows)
			}
		}
	}
	return m, nil
}

// MustNewModel is NewModel for configurations that cannot fail (tests).
func MustNewModel(opts ModelOptions) *Model {
	m, err := NewModel(opts)
	if err != nil {
		panic(err)
	}
	return m
}

func (m *Model) load(rows []gridRow) {
	for _, r := range rows {
		if r.N <= 0 || r.NsPerInteraction <= 0 || r.Runner == "" {
			continue
		}
		m.grid[r.Runner] = append(m.grid[r.Runner], r)
	}
	for tier := range m.grid {
		rows := m.grid[tier]
		sort.Slice(rows, func(i, j int) bool { return rows[i].N < rows[j].N })
	}
}

// Prediction is the model's admission-time estimate for one job.
type Prediction struct {
	// Tier names the runner the engine will select for this (protocol, n).
	Tier string
	// Class is the size class the total prediction falls into.
	Class Class
	// Interactions is the expected scheduler activations per replica
	// (leapt ones included — the grid's ns/interaction amortizes leaps).
	Interactions float64
	// PerReplica is the predicted wall clock of one replica.
	PerReplica time.Duration
	// Total is PerReplica × the replicas this request computes.
	Total time.Duration
	// Correction is the EWMA multiplier that was applied (1.0 = raw grid).
	Correction float64
}

// Predict prices a normalized spec. kind is the protocol's registry kind
// ("framework" or "counted"); anything else is treated as counted.
func (m *Model) Predict(spec expt.JobSpec, kind string) Prediction {
	n := float64(spec.N)
	if n < 2 {
		n = 2
	}
	var tier string
	var inter float64
	if kind == "framework" {
		// Framework jobs run dense because frame.Executor holds an
		// *engine.Dense. The iteration count is O(log² n) for the paper's
		// programs; each iteration's phase clocks cost Θ(n·log n)
		// activations.
		tier = expt.RunnerDense.String()
		iters := 3 * math.Log2(n)
		if spec.MaxIters > 0 && float64(spec.MaxIters) < iters {
			iters = float64(spec.MaxIters)
		}
		if iters < 1 {
			iters = 1
		}
		inter = iters * n * (math.Log(n) + 1)
	} else {
		tier = expt.SelectRunnerForSize(int64(spec.N)).String()
		// A counted protocol the catalogue does not know is assumed to take
		// linear rounds, the middle of the observed range; the EWMA absorbs
		// the constant.
		rounds := n
		if p, ok := catalog.Lookup(spec.Protocol); ok {
			if p.Hints.StateRich {
				// State-rich entries pin the dense kernel at every n, so
				// predicting a counted tier would charge them the wrong
				// per-interaction cost.
				tier = expt.RunnerDense.String()
			}
			if p.ExpectedRounds != nil {
				rounds = p.ExpectedRounds(n)
			}
		}
		if spec.MaxRounds > 0 && spec.MaxRounds < rounds {
			rounds = spec.MaxRounds
		}
		inter = rounds * n
	}
	ns := m.nsPerInteraction(tier, n)
	corr := m.correction(tier)
	secs := inter * ns * corr / 1e9
	if secs > maxPredictSeconds {
		secs = maxPredictSeconds
	}
	per := time.Duration(secs * float64(time.Second))
	if per < time.Microsecond {
		per = time.Microsecond
	}
	reps := spec.Replicas - spec.Start
	if reps < 1 {
		reps = 1
	}
	total := per * time.Duration(reps)
	if total < per { // overflow
		total = time.Duration(math.MaxInt64)
	}
	p := Prediction{
		Tier:         tier,
		Interactions: inter,
		PerReplica:   per,
		Total:        total,
		Correction:   corr,
	}
	switch {
	case total <= m.interactiveMax:
		p.Class = ClassInteractive
	case total >= m.whaleMin:
		p.Class = ClassWhale
	default:
		p.Class = ClassBatch
	}
	return p
}

// nsPerInteraction interpolates the grid log-log in n within a tier,
// clamping outside the measured range. A tier absent from the grid is
// priced at 10 ns.
func (m *Model) nsPerInteraction(tier string, n float64) float64 {
	m.mu.Lock()
	rows := m.grid[tier]
	m.mu.Unlock()
	if len(rows) == 0 {
		return 10
	}
	if n <= rows[0].N {
		return rows[0].NsPerInteraction
	}
	last := rows[len(rows)-1]
	if n >= last.N {
		return last.NsPerInteraction
	}
	i := sort.Search(len(rows), func(i int) bool { return rows[i].N >= n })
	lo, hi := rows[i-1], rows[i]
	t := (math.Log(n) - math.Log(lo.N)) / (math.Log(hi.N) - math.Log(lo.N))
	return math.Exp(math.Log(lo.NsPerInteraction)*(1-t) + math.Log(hi.NsPerInteraction)*t)
}

func (m *Model) correction(tier string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.corr[tier]; ok {
		return c
	}
	return 1
}

// Observe feeds an actual per-replica duration back into the tier's EWMA
// correction. Predictions of the same tier immediately reflect it, so a
// grid measured on different hardware converges within a few replicas.
func (m *Model) Observe(p Prediction, actual time.Duration) {
	if p.PerReplica <= 0 || actual <= 0 {
		return
	}
	ratio := float64(actual) / float64(p.PerReplica)
	// Undo the correction the prediction already carried, so the EWMA
	// tracks actual/raw-grid rather than compounding on itself.
	if p.Correction > 0 {
		ratio *= p.Correction
	}
	// Clamp a single pathological observation (first replica paging the
	// binary in, a leapt-to-quiescence short-circuit) to two decades.
	if ratio < 0.01 {
		ratio = 0.01
	} else if ratio > 100 {
		ratio = 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev, ok := m.corr[p.Tier]
	if !ok {
		m.corr[p.Tier] = ratio
		return
	}
	next := prev*(1-alpha) + ratio*alpha
	if next < 0.01 {
		next = 0.01
	} else if next > 100 {
		next = 100
	}
	m.corr[p.Tier] = next
}

// Corrections snapshots the per-tier EWMA multipliers (metrics, tests).
func (m *Model) Corrections() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]float64, len(m.corr))
	for k, v := range m.corr {
		out[k] = v
	}
	return out
}

// DeriveDeadline turns a predicted total cost into a per-job wall-clock
// budget: slack × prediction, clamped to [floor, cap]. The slack absorbs
// model error in the direction that matters (killing a legitimate job);
// the floor keeps badly under-predicted tiny jobs alive; the cap is the
// operator's override (Config.JobTimeout) — it always wins, so an explicit
// flat timeout behaves exactly as before. cap ≤ 0 means uncapped.
func DeriveDeadline(predicted, floor, cap time.Duration) time.Duration {
	const slack = 8
	d := predicted * slack
	if d < predicted { // overflow
		d = time.Duration(math.MaxInt64)
	}
	if d < floor {
		d = floor
	}
	if cap > 0 && d > cap {
		d = cap
	}
	return d
}
