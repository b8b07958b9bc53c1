package main

import "testing"

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3 = 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestTailPercentileRule checks the reporting rule: the highest percentile
// with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, ok := tailPercentile(xs)
		if ok != tc.ok || p != tc.want {
			t.Errorf("n=%d: tailPercentile = p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok && v != percentile(xs, p) {
			t.Errorf("n=%d: value %v is not the p%v of the sample", tc.n, v, p)
		}
	}
}
