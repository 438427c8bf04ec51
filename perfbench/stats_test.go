package main

import "testing"

// The expected values are what Python's statistics.median and
// statistics.quantiles(xs, n=4) return for the same inputs.
func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs     []float64
		median float64
		q      [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, 1.5, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, 2, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9.0, 2.0, 7.75}, 5.5, [3]float64{1.625, 5.5, 8.375}},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		q, err := quartiles(c.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", c.xs, err)
		}
		if q != c.q {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, q, c.q)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Fatalf("median or quartiles reordered their input: %v, was %v", c.xs, in)
			}
		}
	}
	if _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("mean(1, 2, 3, 6) = %v, want 3", got)
	}
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
}
