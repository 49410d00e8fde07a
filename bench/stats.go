package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. With
// fewer, a handful of outliers sets the value, so percentile refuses it.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs, refusing when fewer
// than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	// The tolerance absorbs rounding in 1-p, so 100 samples do support p90.
	if beyond := float64(len(xs)) * (1 - p); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", 100*p, len(xs), beyond, minBeyond)
	}
	return quantile(xs, p), nil
}

// quantile is the p-quantile of xs, interpolated between closest ranks, with
// no sample-count check: medians use it, and so does the maximum (p = 1).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates tail tries, highest first.
var tailPercentiles = []float64{0.99, 0.9, 0.8}

// tail returns the highest tail percentile the sample supports and its name,
// or the maximum when the sample is too small for any of them.
func tail(xs []float64) (float64, string) {
	for _, p := range tailPercentiles {
		if v, err := percentile(xs, p); err == nil {
			return v, fmt.Sprintf("p%g", 100*p)
		}
	}
	return quantile(xs, 1), "max"
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so -compare reports the spreads the acceptance check
// sees. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
