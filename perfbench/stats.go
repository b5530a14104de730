package main

import (
	"math"
	"sort"
)

// summary is one metric over a run's simulations: the median, the highest
// percentile with at least ten samples beyond it (0 when fewer than 20
// samples allow none), and the sample count.
type summary struct {
	Median  float64
	TailP   float64 // percentile of Tail, e.g. 90; 0 = none
	Tail    float64
	Samples int
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90}

// summarize returns the median and tail of xs. It does not modify xs.
func summarize(xs []float64) summary {
	s := summary{Samples: len(xs), Median: percentile(xs, 50)}
	for _, p := range tailPercentiles {
		// Nearest rank r leaves n-r samples above it.
		r := nearestRank(p, len(xs))
		if len(xs)-r >= 10 {
			s.TailP, s.Tail = p, percentile(xs, p)
			break
		}
	}
	return s
}

// percentile returns the p-th percentile of xs: the median averages the two
// middle samples of an even count; any other p uses the nearest rank. An empty
// slice yields 0.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 {
		if n%2 == 1 {
			return s[n/2]
		}
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[nearestRank(p, n)-1]
}

// nearestRank is the 1-based rank ceil(p/100*n), clamped to [1, n]. The
// epsilon keeps float error in p/100*n from bumping an exact rank up.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// ratio returns num/den, or 0 when den is 0 (the metric has no base on this
// workload, e.g. wire bytes when nothing was aggregated).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
