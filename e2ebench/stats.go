package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before it is reported: with fewer, the tail is one or two unlucky
// samples rather than a measurement.
const minBeyond = 10

// samplesFor returns the smallest sample count at which percentile p
// (0 < p < 100) has minBeyond samples beyond it.
func samplesFor(p float64) int {
	return int(math.Ceil(minBeyond * 100 / (100 - p)))
}

// percentile returns the p-th percentile (nearest rank on the sorted
// samples) and an error when fewer than minBeyond samples lie beyond it.
// xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	if need := samplesFor(p); len(xs) < need {
		return 0, fmt.Errorf("p%v needs %d samples for %d beyond it, have %d", p, need, minBeyond, len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[rank-1], nil
}

// median is the 50th percentile under the same sample rule, for
// distributions of operation latencies.
func median(xs []float64) (float64, error) { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile with
// the same method as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		// m = k*(n+1)/4, interpolated between the 1-based ranks around m.
		m := float64(k) * float64(n+1) / 4
		j := int(math.Floor(m))
		delta := m - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return at(1), at(2), at(3)
}

// medianOf is the interpolated middle value, for summaries of repeats
// (set-ups, probe timings, windows, runs) where no tail is reported and
// the sample rule does not apply.
func medianOf(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// spread is the run-to-run spread of a metric's values: the distance
// between the first and third quartile as a share of the median, the
// figure a metric's bound in BENCHMARK.json limits.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// windowMedian splits xs, in time order, into consecutive windows of w
// samples (a shorter last window is dropped) and returns the median over
// windows of f(window). A burst of host interference then moves one
// window's figure instead of the run's.
func windowMedian(xs []float64, w int, f func([]float64) (float64, error)) (float64, error) {
	var per []float64
	for i := 0; i+w <= len(xs); i += w {
		v, err := f(xs[i : i+w])
		if err != nil {
			return 0, err
		}
		per = append(per, v)
	}
	if len(per) == 0 {
		return 0, fmt.Errorf("%d samples make no window of %d", len(xs), w)
	}
	return medianOf(per), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
