package engine

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(12345)
	b := NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(54321)
	same := 0
	a = NewRNG(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{1, 2, 3, 7, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(7)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ≈0.5", mean)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(9)
	const n = 100
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, n)
	for _, x := range xs {
		if seen[x] {
			t.Fatalf("value %d appears twice after shuffle", x)
		}
		seen[x] = true
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(11)
	// 1e-17 is below 2⁻⁵⁴, where 1-p rounds to 1: the leap must still
	// average about 1/p, not collapse to 0.
	for _, p := range []float64{0.5, 0.1, 0.01, 1e-17} {
		const trials = 20000
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / trials
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.1*want+0.05 {
			t.Errorf("Geometric(%v) mean = %v, want ≈%v", p, mean, want)
		}
	}
	if NewRNG(1).Geometric(1.5) != 0 {
		t.Error("Geometric(p≥1) != 0")
	}
}

// TestGeometricKeepsStream checks Geometric against the plain inverse
// transform floor(ln U / ln(1-p)) wherever 1-p does not round to 1, bit
// for bit, over a sweep of p from 2⁻⁵³ up to 1 and several seeds: every
// pinned counted-kernel stream is made of such draws.
func TestGeometricKeepsStream(t *testing.T) {
	plain := func(r *RNG, p float64) uint64 {
		if p >= 1 {
			return 0
		}
		u := 1 - r.Float64()
		k := math.Floor(math.Log(u) / math.Log(1-p))
		if k < 0 {
			return 0
		}
		if k > 1e18 {
			return 1 << 60
		}
		return uint64(k)
	}
	for seed := uint64(0); seed < 8; seed++ {
		a, b := NewRNG(seed), NewRNG(seed)
		for p := math.Ldexp(1, -53); p <= 1; p *= 1.37 {
			for i := 0; i < 16; i++ {
				if got, want := a.Geometric(p), plain(b, p); got != want {
					t.Fatalf("seed %d: Geometric(%g) = %d, plain inverse transform gives %d", seed, p, got, want)
				}
			}
		}
	}
}

func TestInt63nBounds(t *testing.T) {
	r := NewRNG(13)
	const n = int64(1) << 40
	for i := 0; i < 1000; i++ {
		v := r.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n = %d out of range", v)
		}
	}
}
