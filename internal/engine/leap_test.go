package engine

import (
	"math"
	"testing"
)

// exactLeap is Geometric's exact expression for the draw u, the reference
// every certified leap must equal.
func exactLeap(u, p float64) uint64 {
	lq := math.Log(1 - p)
	if lq == 0 {
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

// TestTableLog checks tableLog against math.Log within tableLogErr: every
// bucket of [1, 2) at 64 points and at both ends, scaled into (0, 1] by
// several powers of two, 512 points of the log1p branch above 1−2⁻⁸, and
// the ends of the domain and of the two branches.
func TestTableLog(t *testing.T) {
	var ms, xs []float64
	for i := 0; i < 256; i++ {
		start := 1 + float64(i)/256
		for j := 0; j < 64; j++ {
			ms = append(ms, start+(float64(j)+0.5)/(256*64))
		}
		ms = append(ms, start, math.Nextafter(start+1.0/256, 0))
	}
	for _, m := range ms {
		// At 2⁻¹ the top buckets reach into the log1p branch.
		for _, e := range []int{-1, -2, -9, -53} {
			xs = append(xs, math.Ldexp(m, e))
		}
	}
	for j := 0; j < 256; j++ {
		xs = append(xs, 1-(float64(j)+0.5)/(1<<16), 1-float64(j)*0x1p-53)
	}
	edge := 1 - 1.0/256
	xs = append(xs, 0x1p-53, 0.5, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1), 1-0x1p-53)

	worst, branches := 0.0, [2]int{}
	for _, x := range xs {
		if x <= 0 || x > 1 {
			t.Fatalf("test point %g outside (0, 1]", x)
		}
		if x == 1 {
			continue
		}
		if x > edge {
			branches[1]++
		} else {
			branches[0]++
		}
		want := math.Log(x)
		rel := math.Abs(tableLog(x)-want) / -want
		if rel > tableLogErr {
			t.Errorf("tableLog(%v) = %v, math.Log gives %v: relative error %.3g > %g", x, tableLog(x), want, rel, tableLogErr)
		}
		worst = math.Max(worst, rel)
	}
	if got := tableLog(1); got != 0 {
		t.Errorf("tableLog(1) = %v, want 0", got)
	}
	if branches[0] < 256*64 || branches[1] < 64 {
		t.Errorf("branch points = %v, want ≥ %d table and ≥ 64 log1p", branches, 256*64)
	}
	t.Logf("%d points (%d table, %d log1p), worst relative error %.3g", len(xs), branches[0], branches[1], worst)
}

// fuzzLeapArgs maps two words to a draw u on Float64's grid in [2⁻⁵³, 1],
// as Geometric forms it, and to p in (0, 1): every positive float below 1,
// the subnormals included, by its bit pattern.
func fuzzLeapArgs(wu, wp uint64) (u, p float64) {
	return 1 - float64(wu>>11)/(1<<53), math.Float64frombits(1 + wp%(math.Float64bits(1)-1))
}

// leapWords inverts fuzzLeapArgs for u on the grid and p in (0, 1).
func leapWords(u, p float64) (wu, wp uint64) {
	return uint64((1-u)*(1<<53)) << 11, math.Float64bits(p) - 1
}

// nearIntegerLeaps returns pairs (u, p) whose exact ratio ln u / ln(1−p)
// lies within a few grid steps of u from the integer k, for k from 1 to
// 10⁹: the draws where a wrong certificate would show.
func nearIntegerLeaps() [][2]float64 {
	var pairs [][2]float64
	for _, p := range []float64{0.5, 0.1, 1e-3, 1e-5, 1e-7, 3e-8, 0x1p-30} {
		lq := math.Log(1 - p)
		for _, k := range []float64{1, 2, 3, 17, 1000, 123457, 1e6, 1e8, 1e9} {
			if k*lq < -36 {
				continue // u would fall below 2⁻⁵³
			}
			g := math.Round((1 - math.Exp(k*lq)) * (1 << 53))
			for step := -3.0; step <= 3; step++ {
				if gs := g + step; gs >= 0 && gs < 1<<53 {
					pairs = append(pairs, [2]float64{1 - gs/(1<<53), p})
				}
			}
		}
	}
	return pairs
}

// FuzzCertifiedLeap checks that a certified leap equals Geometric's exact
// expression. The seed corpus holds near-integer ratios, the ends of u's
// grid, p = 2⁻⁵⁴ (where 1−p rounds to 1) and its neighbours, and
// p = 1−2⁻⁵³ (where 1−p is 2⁻⁵³).
func FuzzCertifiedLeap(f *testing.F) {
	for _, pu := range nearIntegerLeaps() {
		wu, wp := leapWords(pu[0], pu[1])
		f.Add(wu, wp)
	}
	tiny := 0x1p-54
	for _, p := range []float64{tiny, math.Nextafter(tiny, 0), math.Nextafter(tiny, 1), 1 - 0x1p-53, 0.5, 1e-9} {
		for _, u := range []float64{1, 0x1p-53, 0.5, 1 - 0x1p-53} {
			wu, wp := leapWords(u, p)
			f.Add(wu, wp)
		}
	}
	f.Fuzz(func(t *testing.T, wu, wp uint64) {
		u, p := fuzzLeapArgs(wu, wp)
		if k, ok := certifiedLeap(u, 1-p); ok {
			if want := exactLeap(u, p); k != want {
				t.Fatalf("u = %v, p = %v: certified leap %d, exact expression %d", u, p, k, want)
			}
		}
	})
}

// TestCertifiedLeapSweep draws leaps as Geometric does over p from 10⁻⁹ to
// 0.9 and checks every certified one against the exact expression. Both
// branches must run: some leaps fall back to math.Log, and fewer than 1%.
func TestCertifiedLeapSweep(t *testing.T) {
	r := NewRNG(2018)
	var leaps, fallbacks int
	for p := 1e-9; p < 0.9; p *= 1.37 {
		for i := 0; i < 2000; i++ {
			u := 1 - r.Float64()
			leaps++
			k, ok := certifiedLeap(u, 1-p)
			if !ok {
				fallbacks++
				continue
			}
			if want := exactLeap(u, p); k != want {
				t.Fatalf("u = %v, p = %v: certified leap %d, exact expression %d", u, p, k, want)
			}
		}
	}
	t.Logf("%d of %d leaps fell back", fallbacks, leaps)
	if fallbacks == 0 || fallbacks*100 >= leaps {
		t.Errorf("%d of %d leaps fell back, want some and under 1%%", fallbacks, leaps)
	}
}

// BenchmarkGeometric times one draw and its leap per op, cycling through
// p from 0.5 down to 5·10⁻⁸ by factors of 10: the range a counted
// kernel's active phase steps through.
func BenchmarkGeometric(b *testing.B) {
	var ps [8]float64
	for i := range ps {
		ps[i] = 0.5 * math.Pow(10, -float64(i))
	}
	r := NewRNG(1)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += r.Geometric(ps[i&7])
	}
	geometricSink = sink
}

var geometricSink uint64
