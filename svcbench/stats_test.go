package main

import "testing"

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples: want an error, got a value")
	}
	xs = append(xs, 99)
	got, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if want := 89.1; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("p90 of 0..99 = %g, want %g", got, want)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples: want an error")
	}
	if got, _ := percentile(xs, 0.5); got != 49.5 {
		t.Fatalf("p50 of 0..99 = %g, want 49.5", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
