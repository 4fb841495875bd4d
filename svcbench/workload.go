package main

import (
	"fmt"

	"popkit/internal/expt"
	"popkit/internal/serve"
)

// shape is one fixed job shape; a workload's seed picks only the spec seeds
// and the request order, never the shapes themselves.
type shape struct {
	Protocol string
	N        int
	Replicas int
	Gap      int
}

func (s shape) String() string {
	return fmt.Sprintf("%s n=%d ×%d", s.Protocol, s.N, s.Replicas)
}

func (s shape) spec(seed uint64) expt.JobSpec {
	return expt.JobSpec{Protocol: s.Protocol, N: s.N, Replicas: s.Replicas, Gap: s.Gap, Seed: seed}
}

// workload is a fixed request mix. Requests run in cycles: each cycle sends
// every entry of the cycle once, in a seeded order, so any whole number of
// cycles has exactly the same shape mix.
type workload struct {
	name string
	// shapes is the cycle for cold and sharded. For hot it has one entry,
	// the shape of every pool spec.
	shapes []shape
	// pool, when > 0, makes the workload replay a fixed pool of that many
	// specs (committed during set-up) instead of minting a fresh spec per
	// request.
	pool int
}

// Shapes are equal-cost by construction (README.md lists each one's
// measured cost and CV): a mix of unequal costs turns the tail into a
// measure of which shapes a run happened to draw.
var workloads = []workload{
	// cold: every request a distinct spec, so each one misses the store and
	// computes; kernels and frame do nearly all the work.
	{
		name: "cold",
		shapes: []shape{
			{"approxmajority", 800, 88, 1},  // dense
			{"approxmajority", 90000, 2, 1}, // batch
			{"exactmajority", 160000, 1, 1}, // batch
			{"coalescence", 2000000, 1, 0},  // batch
			{"coalescence", 10000000, 1, 0}, // aggregate
			{"majority", 4400, 1, 1},        // frame
			{"plurality", 2200, 6, 0},       // frame
			{"majorityexact", 1000, 3, 1},   // frame
		},
	},
	// hot: a committed pool replayed, so every request is a store hit and
	// only the request path runs.
	{
		name: "hot",
		shapes: []shape{
			{"approxmajority", 300, 16, 1},
		},
		pool: 32,
	},
	// sharded: distinct multi-replica specs through the coordinator, the
	// only path through dispatch, shard streaming and merge.
	{
		name: "sharded",
		shapes: []shape{
			{"approxmajority", 800, 112, 1}, // dense
			{"exactmajority", 60000, 4, 1},  // batch
			{"coalescence", 600000, 4, 0},   // batch
			{"majority", 1600, 4, 1},        // frame
			{"plurality", 2048, 8, 0},       // frame
			{"majorityexact", 550, 8, 1},    // frame
		},
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkShapes requires every shape to normalize under the limits of the
// server that runs it, and every protocol that takes a gap to carry one:
// the HTTP default gap 0 is a tie, which 4-state exactmajority never
// decides, so such a job runs until its deadline.
func checkShapes(w workload) error {
	reg := serve.NewRegistry()
	for _, s := range w.shapes {
		spec := s.spec(1)
		p, err := reg.Normalize(&spec, maxNFor(w), maxReplicas)
		if err != nil {
			return fmt.Errorf("shape %s: %w", s, err)
		}
		for _, param := range p.Params {
			if param == "gap" && s.Gap < 1 {
				return fmt.Errorf("shape %s: majority-family shape needs gap ≥ 1", s)
			}
		}
	}
	return nil
}

// cycleLen is the number of requests in one cycle.
func (w workload) cycleLen() int {
	if w.pool > 0 {
		return w.pool
	}
	return len(w.shapes)
}

// wholeCycles is the smallest whole number of cycles, in requests, that
// reaches n requests.
func (w workload) wholeCycles(n int) int {
	c := w.cycleLen()
	return (n + c - 1) / c * c
}

// minRequests is the request floor of a timed phase: 100 requests, so p90
// has ten samples beyond it, in whole cycles. It is also the prefix the
// work fingerprint covers.
func (w workload) minRequests() int { return w.wholeCycles(100) }

// tracedRequests is the length of a traced pass: whole cycles of at least
// 50 requests from the start of the same sequence. The pass costs about
// twice the requests' compute (served, then replayed), so it is kept
// shorter than the timed phase.
func (w workload) tracedRequests() int { return w.wholeCycles(50) }

// Seed-stream salts keep the spec seeds of the timed requests, the warm-up
// requests and the hot pool apart.
const (
	saltRequest = 0x5eed0001
	saltWarmup  = 0x5eed0002
	saltPool    = 0x5eed0003
	saltOrder   = 0x5eed0004
	saltSample  = 0x5eed0005
)

// plan is the deterministic request sequence of one (workload, seed).
type plan struct {
	w    workload
	seed uint64
	pool []expt.JobSpec
}

func newPlan(w workload, seed uint64) *plan {
	p := &plan{w: w, seed: seed}
	for i := 0; i < w.pool; i++ {
		p.pool = append(p.pool, w.shapes[0].spec(mix(seed^saltPool, uint64(i))))
	}
	return p
}

// request returns the spec of timed request i and the index of the hot
// pool entry it replays (-1 when the workload has no pool).
func (p *plan) request(i int) (expt.JobSpec, int) {
	c := p.w.cycleLen()
	order := permutation(c, mix(p.seed^saltOrder, uint64(i/c)))
	k := order[i%c]
	if p.w.pool > 0 {
		return p.pool[k], k
	}
	return p.w.shapes[k].spec(mix(p.seed^saltRequest, uint64(i))), -1
}

// warmups returns the untimed set-up requests: one per shape, with seeds
// apart from every timed request.
func (p *plan) warmups() []expt.JobSpec {
	var out []expt.JobSpec
	for k, s := range p.w.shapes {
		out = append(out, s.spec(mix(p.seed^saltWarmup, uint64(k))))
	}
	return out
}

// sample picks one request index per shape from the first minReq requests
// (whole cycles); those responses are recomputed in process after the
// timed phase.
func (p *plan) sample(minReq int) []int {
	c := p.w.cycleLen()
	cycles := minReq / c
	var out []int
	for k := range p.w.shapes {
		cyc := int(mix(p.seed^saltSample, uint64(k)) % uint64(cycles))
		order := permutation(c, mix(p.seed^saltOrder, uint64(cyc)))
		for pos, v := range order {
			if v == k {
				out = append(out, cyc*c+pos)
			}
		}
	}
	return out
}

// mix is splitmix64 over (seed, i): the benchmark's own seed derivation, so
// its inputs do not change when the program's RNG code does.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permutation is a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(n int, seed uint64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
