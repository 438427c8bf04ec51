// Package stats provides small statistical helpers used throughout the
// simulator and the benchmark harness: means, geometric means, standard
// deviations, percentiles and deterministic pseudo-random number generation
// for workload synthesis.
//
// The package is dependency-free and deliberately simple; it is not a
// general-purpose statistics library, only what the Widx reproduction needs
// for paper-style geometric-mean speedups. Confidence intervals of sampled
// measurements live in internal/sampling/stats.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregate functions when given no samples.
var ErrEmpty = errors.New("stats: no samples")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive values are not
// meaningful for a geometric mean; they are clamped to a tiny positive value
// so that a single zero sample does not collapse the whole aggregate, which
// mirrors how speedup geomeans are reported in the paper (every speedup is
// strictly positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when fewer than two samples are provided.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. The input slice is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Normalize divides every element of xs by base and returns the result as a
// new slice. It is used to produce "normalized to OoO / normalized to Small"
// style figures. A zero base yields a slice of zeros.
func Normalize(xs []float64, base float64) []float64 {
	out := make([]float64, len(xs))
	if base == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Speedup returns baseline/improved, the conventional speedup metric.
// It returns +Inf when improved is 0 and 0 when baseline is 0.
func Speedup(baseline, improved float64) float64 {
	if improved == 0 {
		if baseline == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return baseline / improved
}
