package main

import "testing"

// TestSummaryDigits pins benchdiff's number format: values of 1 or more
// keep two decimals, and values below 1 show three significant digits, so
// a per-interaction cost of ≈ 0.00014 ns no longer prints as 0.00.
func TestSummaryDigits(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want string
	}{
		{[]float64{114.9, 120.25, 1}, "114.90 [1.00–120.25]"},
		{[]float64{1234.5}, "1234.50 [1234.50–1234.50]"},
		{[]float64{0.000143, 0.00014, 0.0001512}, "0.000143 [0.000140–0.000151]"},
		{[]float64{0.5, 0.0123, 0.987}, "0.500 [0.0123–0.987]"},
		{[]float64{0}, "0.00 [0.00–0.00]"},
	} {
		if got := summary(tc.xs); got != tc.want {
			t.Errorf("summary(%v) = %q, want %q", tc.xs, got, tc.want)
		}
	}
}
