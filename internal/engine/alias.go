package engine

// Walker alias table: O(1) weighted draws after an O(#species) build. The
// aggregate step's composition path makes thousands of draws against a
// weight vector frozen for the whole batch, so it rebuilds an alias table
// lazily whenever some count changed and then samples at flat cost per
// draw.

// aliasTable holds the Walker small/large decomposition of a weight vector:
// column i is split between outcome i (probability prob[i]) and outcome
// alias[i] (the rest), so a draw is one uniform column pick plus one
// Bernoulli test.
type aliasTable struct {
	prob  []float64
	alias []int32
}

// build (re)constructs the table over the given non-negative int64 weights,
// reusing the receiver's storage. At least one weight must be positive.
func (a *aliasTable) build(weights []int64) {
	n := len(weights)
	if cap(a.prob) < n {
		a.prob = make([]float64, n)
		a.alias = make([]int32, n)
	} else {
		a.prob = a.prob[:n]
		a.alias = a.alias[:n]
	}
	var total int64
	for _, w := range weights {
		if w < 0 {
			panic("engine: alias table with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("engine: alias table with zero total weight")
	}
	// Scaled weights: prob temporarily holds w·n/total; columns below 1 are
	// "small" and get topped up by "large" columns.
	scale := float64(n) / float64(total)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		a.prob[i] = float64(w) * scale
		a.alias[i] = int32(i)
		if a.prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		a.alias[s] = l
		a.prob[l] -= 1 - a.prob[s]
		if a.prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers on either list are exactly 1 up to rounding.
	for _, i := range small {
		a.prob[i] = 1
	}
	for _, i := range large {
		a.prob[i] = 1
	}
}

// sample draws an index proportionally to the built weights. Two RNG draws,
// independent of the number of outcomes.
func (a *aliasTable) sample(rng *RNG) int32 {
	i := int32(rng.Intn(len(a.prob)))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
