// Package engine provides the population-protocol simulation substrate: a
// deterministic random number generator, dense (per-agent) and counted
// (per-species) population representations, and schedulers implementing the
// paper's probabilistic interaction models — the asynchronous uniform
// random-pair scheduler and the random-matching parallel scheduler (§5.3).
package engine

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256++ generator seeded via splitmix64.
// It is not safe for concurrent use; every Runner owns its own instance so
// experiments are reproducible from a single seed.
type RNG struct {
	s [4]uint64
}

// mix64 is the splitmix64 output function: a bijective avalanche mix used
// both to expand seeds into xoshiro state and to derive replica sub-seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given value. Distinct seeds
// give independent-looking streams; the zero seed is valid.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		r.s[i] = mix64(sm)
	}
	return r
}

// SplitSeed derives the seed of replica i from a root seed. The derivation
// is a two-stage splitmix64 mix, so nearby (root, replica) pairs map to
// statistically independent streams: a fleet of replicas seeded with
// SplitSeed(root, 0..k) reproduces identical trajectories no matter how the
// replicas are scheduled across workers.
func SplitSeed(root, replica uint64) uint64 {
	return mix64(root + 0x9e3779b97f4a7c15*mix64(replica+0x9e3779b97f4a7c15))
}

// NewReplicaRNG returns the deterministic RNG stream of replica i under the
// given root seed: NewRNG(SplitSeed(root, replica)).
func NewReplicaRNG(root, replica uint64) *RNG {
	return NewRNG(SplitSeed(root, replica))
}

// Uint64 returns the next 64 random bits. It fits the compiler's inlining
// budget (cost 76 of 80), so Intn and Int63n draw without a second call.
func (r *RNG) Uint64() (out uint64) {
	out, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return
}

// xoshiro is one xoshiro256++ step on state passed by value, so a hot loop
// (Runner's step loop) can keep the state in registers. The last three
// updates are folded into the return, which keeps the step cheap enough
// for Uint64 to inline. The values are still computed in the textbook
// order: reordering them changes how Runner.scan's loop is register
// allocated.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	return out, s0 ^ s3, s1, s2 ^ t, bits.RotateLeft64(s3, 45)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's unbiased multiply-shift rejection method: the high word of
// a draw's product with n, redrawn until lemireKeeps accepts it.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn with non-positive bound")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		for !lemireKeeps(lo, un) {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Int63n is Intn for int64 bounds (large populations in counted mode).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("engine: Int63n with non-positive bound")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		for !lemireKeeps(lo, un) {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int64(hi)
}

// lemireKeeps is the accept test of Lemire's multiply-shift method: a
// 64-bit draw whose product with the bound n has low word lo is kept
// unless lo < 2⁶⁴ mod n. That threshold is below n, so every caller tests
// lo < n first: one compare settles all but a fraction n/2⁶⁴ of draws, and
// the division and the redraw loop stay off the common path.
func lemireKeeps(lo, n uint64) bool {
	return lo >= -n%n
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Shuffle permutes n elements using the provided swap function
// (Fisher–Yates).
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns the number of consecutive failures before the first
// success of a Bernoulli(p) trial, i.e. a sample of the geometric
// distribution with support {0, 1, 2, …}. For p ≥ 1 it returns 0; p must be
// > 0. Used by the counted engine to leap over non-reactive interactions.
func (r *RNG) Geometric(p float64) uint64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("engine: Geometric with non-positive probability")
	}
	// Inverse transform: floor(ln(U) / ln(1-p)) with U in (0,1].
	u := 1 - r.Float64() // (0, 1]
	lq := math.Log(1 - p)
	if lq == 0 {
		// 1-p rounds to 1 (p ≤ 2⁻⁵⁴), so ln(1-p) would be 0 and every
		// leap 0; log1p keeps the mean near 1/p. Larger p keep ln(1-p)
		// and with it every draw of the pinned stream.
		lq = math.Log1p(-p)
	}
	k := math.Floor(math.Log(u) / lq)
	if k < 0 {
		return 0
	}
	if k > 1e18 {
		return 1 << 60
	}
	return uint64(k)
}
