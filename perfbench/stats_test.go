package main

import "testing"

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(samples(999), 0.99); err == nil {
		t.Error("p99 of 999 samples reported with 9 samples beyond it")
	}
	p, err := percentile(samples(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p)
	}
	if _, err := percentile(samples(19), 0.5); err == nil {
		t.Error("p50 of 19 samples reported with 9 samples beyond it")
	}
	if p, err := percentile(samples(20), 0.5); err != nil || p != 10 {
		t.Errorf("p50 of 1..20 = %g, %v; want 10", p, err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
