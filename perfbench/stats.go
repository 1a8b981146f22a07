package main

import (
	"math"
	"sort"
)

// pct is one percentile of a sample, with the counts that say whether the
// sample supports it.
type pct struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank p-quantile of xs, which it sorts.
func percentile(xs []float64, p float64) pct {
	r := pct{P: p, N: len(xs)}
	if len(xs) == 0 {
		return r
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	r.Value = xs[k]
	r.Beyond = len(xs) - 1 - k
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqMean is the mean of the middle half of xs, after the lowest and the
// highest quarter are dropped. Single events here can be bimodal (a routed
// restart takes either about 90 or about 140 ms), and a median of a few of
// them flips between the modes from run to run where a mean moves
// smoothly; dropping the outer quarters keeps one stalled slice or event
// from moving it.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, which is how the spread of repeated runs is
// judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
