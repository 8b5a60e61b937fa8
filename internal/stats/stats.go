// Package stats provides the statistical primitives the experiments rely
// on: numerically stable running moments (Welford) and ordinary
// least-squares linear regression (used by the predictive
// capacity-management policies).
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a stream of observations and exposes numerically
// stable moments. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add records one observation (Welford's online algorithm).
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations recorded.
func (r *Running) N() int { return r.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// SampleVariance returns the unbiased (n-1) variance, or 0 with fewer than
// two observations.
func (r *Running) SampleVariance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// SampleStdDev returns the sample standard deviation.
func (r *Running) SampleStdDev() float64 { return math.Sqrt(r.SampleVariance()) }

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
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

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.StdDev()
}

// SampleStdDev returns the sample (n-1) standard deviation of xs.
func SampleStdDev(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.SampleStdDev()
}

// LinReg holds the coefficients of a fitted line y = Alpha + Beta*x.
type LinReg struct {
	Alpha, Beta float64
	N           int
}

// FitLine computes the ordinary least-squares fit of ys against xs. It
// returns an error when the inputs are mismatched, too short, or xs has no
// variance (vertical line).
func FitLine(xs, ys []float64) (LinReg, error) {
	if len(xs) != len(ys) {
		return LinReg{}, fmt.Errorf("stats: FitLine input lengths differ: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinReg{}, fmt.Errorf("stats: FitLine needs at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return LinReg{}, fmt.Errorf("stats: FitLine x values are all identical")
	}
	beta := sxy / sxx
	return LinReg{Alpha: my - beta*mx, Beta: beta, N: len(xs)}, nil
}

// Predict evaluates the fitted line at x.
func (l LinReg) Predict(x float64) float64 { return l.Alpha + l.Beta*x }
