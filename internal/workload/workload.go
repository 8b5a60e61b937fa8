// Package workload generates the synthetic load the experiments drive the
// simulators with.
//
// Two kinds of load appear in the paper. The cluster experiments (§5)
// start each server at a load drawn uniformly from a band — 20-40% for the
// low-load runs, 60-80% for the high-load runs — and evolve application
// demand at a bounded rate. The capacity-management policies of §3 are
// instead driven by a request-arrival process; the package provides rate
// profiles (constant, diurnal, spiky, trending) for that simulation, since
// the paper stresses that policy quality depends on whether the load is
// "slow- or fast-varying, has spikes or is smooth".
package workload

import (
	"fmt"
	"math"

	"ealb/internal/units"
	"ealb/internal/xrand"
)

// Band is a uniform load band [Lo,Hi], e.g. the paper's 20-40%.
type Band struct {
	Lo, Hi float64
}

// LowLoad is the paper's low-average-load band (§5 experiment (i)).
func LowLoad() Band { return Band{Lo: 0.20, Hi: 0.40} }

// HighLoad is the paper's high-average-load band (§5 experiment (ii)).
func HighLoad() Band { return Band{Lo: 0.60, Hi: 0.80} }

// Validate checks the band.
func (b Band) Validate() error {
	if b.Lo < 0 || b.Hi > 1 || b.Hi <= b.Lo {
		return fmt.Errorf("workload: invalid band [%v,%v]", b.Lo, b.Hi)
	}
	return nil
}

// Mean returns the band's expected value.
func (b Band) Mean() float64 { return (b.Lo + b.Hi) / 2 }

// InitialLoads draws one target load per server from the band.
func InitialLoads(rng *xrand.Rand, n int, b Band) ([]units.Fraction, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: non-positive server count %d", n)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	out := make([]units.Fraction, n)
	for i := range out {
		out[i] = units.Fraction(rng.Uniform(b.Lo, b.Hi))
	}
	return out, nil
}

// AppendAppSizes decomposes a target server load into individual
// application demands drawn from [minSize, maxSize), appended to dst,
// stopping when the running sum reaches the target (the final app is
// trimmed to land exactly on it, subject to the minimum size). Passing
// a reused scratch slice keeps a cluster rebuild allocation-free.
func AppendAppSizes(dst []units.Fraction, rng *xrand.Rand, target units.Fraction, minSize, maxSize float64) ([]units.Fraction, error) {
	if minSize <= 0 || maxSize <= minSize || maxSize > 1 {
		return nil, fmt.Errorf("workload: invalid app size range [%v,%v)", minSize, maxSize)
	}
	if !target.Valid() {
		return nil, fmt.Errorf("workload: invalid target load %v", target)
	}
	var sum float64
	for sum < float64(target) {
		s := rng.Uniform(minSize, maxSize)
		if remaining := float64(target) - sum; s > remaining {
			if remaining < minSize {
				break // cannot fit another app; undershoot slightly
			}
			s = remaining
		}
		dst = append(dst, units.Fraction(s))
		sum += s
	}
	return dst, nil
}

// RateFunc gives the request arrival rate (requests/second) of a server
// farm at virtual time t; the input process for the §3 policy simulations.
type RateFunc func(t units.Seconds) float64

// ConstantRate returns a flat profile.
func ConstantRate(r float64) RateFunc {
	return func(units.Seconds) float64 { return max0(r) }
}

// DiurnalRate models the daily cycle: a sinusoid with the given period,
// oscillating between base and base+amplitude, peaking mid-period.
func DiurnalRate(base, amplitude float64, period units.Seconds) RateFunc {
	return func(t units.Seconds) float64 {
		phase := 2 * math.Pi * float64(t) / float64(period)
		return max0(base + amplitude*(1-math.Cos(phase))/2)
	}
}

// SpikeRate overlays a flash-crowd spike on a base rate: between start and
// start+width the rate jumps by height (the "unpredictable spikes" §3
// warns reactive policies about).
func SpikeRate(base, height float64, start, width units.Seconds) RateFunc {
	return func(t units.Seconds) float64 {
		r := base
		if t >= start && t < start+width {
			r += height
		}
		return max0(r)
	}
}

// TrendRate grows linearly from base at the given slope (requests/s per
// second) — the predictable load the moving-window and regression
// predictors of §3 handle well.
func TrendRate(base, slope float64) RateFunc {
	return func(t units.Seconds) float64 { return max0(base + slope*float64(t)) }
}

// Compose sums several rate profiles.
func Compose(fns ...RateFunc) RateFunc {
	return func(t units.Seconds) float64 {
		var sum float64
		for _, f := range fns {
			sum += f(t)
		}
		return sum
	}
}

func max0(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Arrivals samples the number of request arrivals in the slot [t, t+dt)
// from a Poisson distribution with mean rate(t)·dt.
func Arrivals(rng *xrand.Rand, rate RateFunc, t, dt units.Seconds) int {
	return rng.Poisson(rate(t) * float64(dt))
}
