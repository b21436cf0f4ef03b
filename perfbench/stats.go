package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported tail percentile must leave
// beyond it; a percentile with fewer samples past it is a single outlier.
const minTail = 10

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 90, 75, 50}

// tailLevel returns the highest percentile of tailLevels that leaves at
// least minTail of n samples beyond it, or 0 when even the median does not.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		// The tolerance absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100 >= minTail-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule. xs is sorted in place. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 50th percentile, averaging the two middle samples of an
// even count so that a two-sample median is not biased low.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tail reports the tail percentile of xs at tailLevel(len(xs)) together
// with the level used; both are 0 when there are too few samples.
func tail(xs []float64) (value, level float64) {
	level = tailLevel(len(xs))
	if level == 0 {
		return 0, 0
	}
	return percentile(xs, level), level
}
