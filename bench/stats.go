package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// the nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// median is the middle value of an unsorted slice (mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean is the arithmetic mean; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// supportedTailSteps are the tail percentiles a report may quote, from the
// least to the most demanding.
var supportedTailSteps = []float64{0.50, 0.90, 0.95, 0.99, 0.999, 0.9999}

// tailBeyond is how many samples must lie beyond a percentile before the
// report quotes it: with fewer, the value is one run's luck.
const tailBeyond = 10

// supportedTail picks the highest percentile of supportedTailSteps that
// still has at least tailBeyond samples above it, and returns that
// percentile with its value. With too few samples for even the median it
// returns (0, 0).
func supportedTail(sorted []float64) (p, value float64) {
	n := len(sorted)
	for _, step := range supportedTailSteps {
		rank := int(math.Ceil(step*float64(n))) - 1
		if rank < 0 || n-1-rank < tailBeyond {
			break
		}
		p, value = step, sorted[rank]
	}
	return p, value
}

// sliceRates splits [start, end) into n equal slices and returns the
// completion rate (events per second) of each; events are completion
// times in the same unit as start and end (nanoseconds).
func sliceRates(events []int64, start, end int64, n int) []float64 {
	rates := make([]float64, n)
	if n == 0 || end <= start {
		return rates
	}
	width := float64(end-start) / float64(n)
	for _, at := range events {
		if at < start || at >= end {
			continue
		}
		i := int(float64(at-start) / width)
		if i >= n {
			i = n - 1
		}
		rates[i]++
	}
	for i := range rates {
		rates[i] /= width / 1e9
	}
	return rates
}

// rateIn is the completion rate (events per second) inside a set of
// intervals given as flattened [from, to) pairs, in nanoseconds.
func rateIn(events []int64, intervals []int64) float64 {
	var n, span int64
	for k := 0; k+1 < len(intervals); k += 2 {
		from, to := intervals[k], intervals[k+1]
		span += to - from
		for _, at := range events {
			if at >= from && at < to {
				n++
			}
		}
	}
	if span <= 0 {
		return 0
	}
	return float64(n) / (float64(span) / 1e9)
}

// cvPct is the coefficient of variation (population standard deviation over
// the mean) as a percentage; 0 when the mean is 0.
func cvPct(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return 100 * math.Sqrt(ss/float64(len(xs))) / m
}

// quartiles returns the first and third quartile by the exclusive method
// (the rule of Python's statistics.quantiles(n=4), which the acceptance
// check uses), so spreads printed here match the ones the PR is judged by.
// Fewer than two values yield the value itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(q float64) float64 {
		pos := q * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75)
}
