// Package stats provides the output-analysis machinery for the simulation
// study: streaming mean/variance accumulators, Student-t confidence
// intervals (the paper reports 95 % intervals with ≤2.5 % relative error),
// Welch's t-test, percentiles and Jain's fairness index.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes streaming mean and variance with Welford's method.
// The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates an observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddAll incorporates every observation in xs.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or NaN when empty.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.mean
}

// Variance returns the unbiased sample variance, or NaN when n < 2.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Min returns the smallest observation, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.min
}

// Max returns the largest observation, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.max
}

// JainIndex returns Jain's fairness index of the observations:
// (Σx)² / (n·Σx²), which is 1 when all values are equal and 1/n when one
// value dominates. The multi-BoT scheduling literature uses it over
// per-application slowdowns. NaN for empty or all-zero input.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return math.NaN()
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Interval is a symmetric confidence interval around a sample mean.
type Interval struct {
	Mean      float64
	HalfWidth float64
	Level     float64 // confidence level, e.g. 0.95
	N         int
}

// Lo returns the lower endpoint.
func (ci Interval) Lo() float64 { return ci.Mean - ci.HalfWidth }

// Hi returns the upper endpoint.
func (ci Interval) Hi() float64 { return ci.Mean + ci.HalfWidth }

// RelErr returns the half-width relative to the mean; +Inf for a zero mean.
func (ci Interval) RelErr() float64 {
	if ci.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(ci.HalfWidth / ci.Mean)
}

// String renders the interval as "mean ± hw (n=..)".
func (ci Interval) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", ci.Mean, ci.HalfWidth, ci.N)
}

// CI computes a Student-t confidence interval at the given level from the
// accumulator contents. With fewer than two observations the half-width is
// infinite.
func (a *Accumulator) CI(level float64) Interval {
	ci := Interval{Mean: a.Mean(), Level: level, N: a.n}
	if a.n < 2 {
		ci.HalfWidth = math.Inf(1)
		return ci
	}
	ci.HalfWidth = TQuantile(level, a.n-1) * a.StdErr()
	return ci
}

// TQuantile returns the two-sided Student-t critical value for the given
// confidence level and degrees of freedom, i.e. the (1+level)/2 quantile.
// It is exact for the tabulated levels (0.90, 0.95, 0.99) and falls back to
// the normal quantile otherwise.
func TQuantile(level float64, df int) float64 {
	if df < 1 {
		return math.Inf(1)
	}
	table, ok := tTables[levelKey(level)]
	if !ok {
		return normalQuantile((1 + level) / 2)
	}
	if df <= len(table) {
		return table[df-1]
	}
	// Large df: interpolate toward the normal limit with the usual
	// Cornish-Fisher style 1/df correction fitted to the table tail.
	z := table[len(table)-1]
	inf := tInf[levelKey(level)]
	return inf + (z-inf)*float64(len(table))/float64(df)
}

func levelKey(level float64) int { return int(math.Round(level * 100)) }

// Two-sided Student-t critical values for df = 1..30.
var tTables = map[int][]float64{
	90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
	95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
	99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
}

var tInf = map[int]float64{90: 1.645, 95: 1.960, 99: 2.576}

// normalQuantile is the Beasley-Springer-Moro approximation of the standard
// normal inverse CDF.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.Inf(sign(p - 0.5))
	}
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
