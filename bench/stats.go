package bench

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted. It returns 0 for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps 99.9 % of 10000 at 9990, which floating
// point would otherwise round up past.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// tailSteps are the tail percentiles a report may quote, lowest first.
var tailSteps = []float64{90, 95, 99, 99.9}

// TailPercentile picks the highest of p90/p95/p99/p99.9 that still has at
// least ten samples beyond it, so the quoted tail is an order statistic
// backed by data rather than one or two outliers. ok is false when even
// p90 has fewer than ten samples beyond it (n < 100).
func TailPercentile(n int) (p float64, ok bool) {
	for _, step := range tailSteps {
		if n-rank(step, n) >= 10 {
			p, ok = step, true
		}
	}
	return p, ok
}

// Median returns the median of xs (not necessarily sorted); 0 if empty.
func Median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Mean returns the arithmetic mean of xs; 0 if empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b with 0 for an empty denominator, so a metric of a layer
// that did no work prints 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
