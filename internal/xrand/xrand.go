// Package xrand provides a small, fast, deterministic pseudo-random number
// generator for the simulator.
//
// Every experiment in this repository must be exactly reproducible from its
// seed, across machines and Go releases. math/rand's global source and the
// evolution of its algorithms between releases make that guarantee awkward,
// so the simulator carries its own generator: SplitMix64 (Steele, Lea &
// Flood, OOPSLA 2014) for state mixing layered under xoshiro-style output.
// SplitMix64 passes BigCrush, has a full 2^64 period, and — crucially for
// fan-out simulations — supports cheap derivation of statistically
// independent child streams, so each server in a 10^4-node cluster can own
// its own stream without coordination.
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator. It is not safe
// for concurrent use; derive one stream per goroutine with Split.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// splitmix64 advances the state and returns the next 64 random bits.
func (r *Rand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 { return r.next() }

// Split derives a new statistically independent generator from r. The
// parent stream advances by one step, so repeated Splits yield distinct
// children.
func (r *Rand) Split() *Rand {
	// The golden-gamma increment guarantees child state differs from any
	// value the parent will produce in practice.
	return New(r.next() ^ 0x5851f42d4c957f2d)
}

// Float64 returns a uniform value in [0,1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits → the canonical [0,1) double.
	return float64(r.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is < 2^-53 for any n the simulator uses.
	return int(r.next() % uint64(n))
}

// Uniform returns a uniform value in [lo,hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// ExpFloat64 returns an exponentially distributed value with rate lambda
// (mean 1/lambda). It panics if lambda <= 0.
func (r *Rand) ExpFloat64(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: ExpFloat64 with non-positive rate")
	}
	u := r.Float64()
	// Guard against log(0); Float64 can return exactly 0.
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / lambda
}

// NormFloat64 returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *Rand) NormFloat64(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's multiplication method for small means and a normal approximation
// for large ones (mean > 500), where Knuth's method would both underflow
// and take O(mean) time.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		v := r.NormFloat64(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
