package main

import (
	"math"
	"sort"
)

// Summary describes a sample of one metric: its median and quartiles,
// the highest standard percentile that still has at least tailBeyond
// samples above it, and the sample count.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the percentile reported as the tail (0 when the
	// sample is too small for any standard percentile to have
	// tailBeyond samples beyond it); Tail is its value.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// tailBeyond is the number of samples that must lie beyond a
// percentile before it is reported as the tail.
const tailBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// Summarize computes the Summary of xs. The quartiles use the same
// "exclusive" interpolation as Python's statistics.quantiles(n=4), so
// spreads computed here agree with ones computed from the printed
// values by that function.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := sorted(xs)
	s.Median = median(v)
	s.Q1, s.Q3 = quartiles(v)
	if p, ok := TailPercentile(len(v)); ok {
		s.TailPct = p
		s.Tail = Percentile(v, p)
	}
	return s
}

// IQRShare is the distance between the quartiles as a share of the
// median's magnitude (0 when the median is 0).
func (s Summary) IQRShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	return v
}

// Median returns the median of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(sorted(xs))
}

func median(v []float64) float64 {
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// quartiles returns the first and third quartiles of the sorted sample
// v by the exclusive method, step for step as Python computes it: the
// k-th cut point sits at 1-based position k·(n+1)/4, interpolated
// between its neighbours, or extrapolated from the outermost pair
// when the position falls outside the sample. A single sample is its
// own quartiles.
func quartiles(v []float64) (float64, float64) {
	n := len(v)
	if n == 1 {
		return v[0], v[0]
	}
	at := func(k int) float64 {
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := float64(k*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(3)
}

// Percentile returns the nearest-rank p-th percentile of the sorted
// sample v: the smallest value with at least p% of the sample at or
// below it.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(v) {
		rank = len(v)
	}
	return v[rank-1]
}

// PercentileOf sorts a copy of xs and returns its nearest-rank p-th
// percentile.
func PercentileOf(xs []float64, p float64) float64 {
	return Percentile(sorted(xs), p)
}

// TailPercentile returns the highest candidate percentile that leaves
// at least tailBeyond of n samples beyond it.
func TailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= tailBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}
