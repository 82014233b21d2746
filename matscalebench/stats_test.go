package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) in Python.
	for _, tc := range []struct {
		data     []float64
		q1, q3   float64
		median   float64
		describe string
	}{
		{[]float64{2, 1}, 0.75, 2.25, 1.5, "two samples extrapolate"},
		{[]float64{1, 2, 3}, 1, 3, 2, "three samples"},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25, 3.5, "ten samples, unsorted"},
		{[]float64{10, 20, 30, 40, 50}, 15, 45, 30, "five samples"},
	} {
		s := Summarize(tc.data)
		if s.Q1 != tc.q1 || s.Q3 != tc.q3 || s.Median != tc.median || s.N != len(tc.data) {
			t.Errorf("%s: got q1=%g median=%g q3=%g n=%d, want %g %g %g %d",
				tc.describe, s.Q1, s.Median, s.Q3, s.N, tc.q1, tc.median, tc.q3, len(tc.data))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := PercentileOf(v, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := PercentileOf([]float64{3, 1}, 95); got != 3 {
		t.Errorf("p95 of two samples = %g, want the larger", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {2000, 99, true}, {999, 95, true}, {200, 95, true},
		{199, 90, true}, {100, 90, true}, {40, 75, true}, {20, 50, true}, {19, 0, false},
	} {
		p, ok := TailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("TailPercentile(%d) = %g, %v; want %g, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(1-p/100) < tailBeyond-1e-9 {
			t.Errorf("TailPercentile(%d) = %g leaves fewer than %d samples beyond", tc.n, p, tailBeyond)
		}
	}
	s := Summarize(make([]float64, 5))
	if s.TailPct != 0 {
		t.Errorf("five samples report tail percentile %g, want none", s.TailPct)
	}
}

func TestIQRShare(t *testing.T) {
	s := Summarize([]float64{10, 20, 30, 40, 50})
	if got := s.IQRShare(); math.Abs(got-1) > 1e-12 {
		t.Errorf("IQRShare = %g, want 1", got)
	}
	if got := Summarize([]float64{0, 0}).IQRShare(); got != 0 {
		t.Errorf("IQRShare of a zero median = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{Name: "root", Layer: "sweep", Parent: -1, Start: 0, End: ms(100)},
		{Name: "a", Layer: "core", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "b", Layer: "core", Parent: 0, Start: ms(30), End: ms(50)}, // overlaps a
		{Name: "c", Layer: "matrix", Parent: 0, Start: ms(90), End: ms(120)},
		{Name: "d", Layer: "matrix", Parent: 1, Start: ms(20), End: ms(25)},
	}
	got := selfTimes(spans)
	// root: 100 − (10..50 ∪ 90..100 clipped) = 100 − 50 = 50.
	// core: a 30 − 5 + b 20 = 45. matrix: c 30 + d 5 = 35.
	want := map[string]time.Duration{"sweep": ms(50), "core": ms(45), "matrix": ms(35)}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}
