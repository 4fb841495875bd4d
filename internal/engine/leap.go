package engine

import "math"

// A leap's length is the integer ⌊ln u / ln q⌋ with q = fl(1−p), where
// Geometric takes both logarithms from math.Log. Only that integer reaches
// the stream, so certifiedLeap computes the ratio from table logarithms
// instead and answers whenever their error provably cannot move the
// floor; Geometric calls math.Log for the rest.

// tableLogErr bounds tableLog's relative error on its domain (see
// tableLog; TestTableLog measures about 1.5·10⁻¹³ at worst).
const tableLogErr = 2e-13

// leapDelta is the relative half-width of the interval around the table
// ratio R = A/B that is certain to hold Geometric's exact ratio
// Q = fl(fl(ln u)/fl(ln q)). The relative errors that separate Q from R:
//
//	A and B, tableLog                     2 × 2·10⁻¹³
//	ln u and ln q, math.Log (under 1 ulp) 2 × 2⁻⁵²  ≈ 4.4·10⁻¹⁶
//	the two divisions' rounding           2 × 2⁻⁵³  ≈ 2.2·10⁻¹⁶
//
// sum to under 4.01·10⁻¹³ (their products are below 10⁻²⁴). leapDelta is
// 25 times that, which also absorbs the rounding of R(1±leapDelta).
const leapDelta = 1e-11

// logTable holds ln c and 1/c at the centre c of each of the 256 buckets
// that the top eight mantissa bits split [1, 2) into.
var logTable [256]struct{ ln, inv float64 }

func init() {
	for i := range logTable {
		c := 1 + (float64(i)+0.5)/256
		logTable[i].ln = math.Log(c)
		logTable[i].inv = 1 / c
	}
}

// tableLog approximates ln x for normal x in (0, 1] within a relative
// error of tableLogErr.
//
// Above 1−2⁻⁸ it sums log1p's series on d = x−1, which is exact, to
// degree 5: the rest of the series is below |d|⁵/6 < 1.53·10⁻¹³ of the
// result. Elsewhere it writes x = 2ᵉ·m with m in [1, 2) and adds e·ln 2,
// ln c of m's bucket and a degree-4 series in t = (m−c)/c, |t| ≤ 2⁻⁹, whose
// rest is below 6·10⁻¹⁵; with the rounding of the sums that stays under
// 10⁻¹³ of |ln x| ≥ 2⁻⁸.
func tableLog(x float64) float64 {
	if x > 1-1.0/256 {
		d := x - 1
		return d * (1 + d*(-1.0/2+d*(1.0/3+d*(-1.0/4+d/5))))
	}
	b := math.Float64bits(x)
	const frac = 1<<52 - 1
	m := math.Float64frombits(b&frac | 1023<<52)
	// c keeps m's bucket bits and sets the next one: the bucket's centre,
	// so m−c is exact.
	c := math.Float64frombits(b&(255<<44) | 1<<43 | 1023<<52)
	bucket := logTable[b>>44&255]
	t := (m - c) * bucket.inv
	return float64(int(b>>52)-1023)*math.Ln2 + bucket.ln + t*(1+t*(-1.0/2+t*(1.0/3-t/4)))
}

// certifiedLeap returns ⌊ln u / ln q⌋ as Geometric's exact expression
// computes it, for u in (0, 1] and q in [2⁻⁵³, 1], and reports whether the
// table logarithms settle it: R ≥ 0, R(1+leapDelta) < 10¹⁷ and one integer
// floor across [R(1−leapDelta), R(1+leapDelta)]. q = 1 gives B = 0 and a
// ratio of −Inf or NaN, which fails the first test, as does any NaN; the
// bound keeps the certified floor far below Geometric's 10¹⁸ cap. Within
// the bound every value is non-negative, so truncation is the floor.
func certifiedLeap(u, q float64) (uint64, bool) {
	r := tableLog(u) / tableLog(q)
	lo, hi := r*(1-leapDelta), r*(1+leapDelta)
	if r >= 0 && hi < 1e17 && int64(lo) == int64(hi) {
		return uint64(hi), true
	}
	return 0, false
}
