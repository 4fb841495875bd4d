package main

import (
	"fmt"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of xs by linear
// interpolation between order statistics. It refuses to answer unless at
// least ten samples lie beyond the quantile, so p90 needs 100 samples: a
// tail estimate from fewer is a handful of points.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", p)
	}
	if beyond := float64(len(xs)) * (1 - p); beyond < 10-1e-9 {
		return 0, fmt.Errorf("p%g needs ≥ %d samples, have %d", p*100, int(10/(1-p)+0.5), len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median is the middle value (mean of the middle two for even counts); it
// needs no tail, so any non-empty sample works.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
