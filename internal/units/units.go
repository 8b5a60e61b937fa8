// Package units defines the typed physical and normalized quantities used
// throughout the simulator: power (Watts), energy (Joules), time (Seconds),
// data sizes (Bytes, Megabytes) and dimensionless normalized fractions.
//
// The simulator performs all of its accounting in these types so that unit
// errors (adding Joules to Watts, treating a load fraction as a percentage)
// become compile-time errors rather than silently wrong results.
package units

import (
	"fmt"
	"math"
)

// Watts is instantaneous power, in Joules per second.
type Watts float64

// Joules is an amount of energy.
type Joules float64

// Seconds is a duration or a point on the simulation clock. The simulator
// uses a float64 virtual clock rather than time.Duration so that arbitrary
// subdivisions of a reallocation interval cost nothing to represent.
type Seconds float64

// Bytes is a data size.
type Bytes int64

// Fraction is a dimensionless normalized quantity in [0,1]: server load,
// normalized performance a(t), normalized energy b(t), utilization, etc.
type Fraction float64

// Common size multiples.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

// Energy returns the energy consumed by drawing power p for duration d.
func Energy(p Watts, d Seconds) Joules {
	return Joules(float64(p) * float64(d))
}

// KWh converts energy to kilowatt-hours.
func (e Joules) KWh() float64 { return float64(e) / 3.6e6 }

// String renders energy with an adaptive SI prefix.
func (e Joules) String() string {
	v := float64(e)
	switch {
	case math.Abs(v) >= 1e9:
		return fmt.Sprintf("%.3f GJ", v/1e9)
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3f MJ", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.3f kJ", v/1e3)
	default:
		return fmt.Sprintf("%.3f J", v)
	}
}

// String renders power with an adaptive SI prefix.
func (w Watts) String() string {
	v := float64(w)
	switch {
	case math.Abs(v) >= 1e6:
		return fmt.Sprintf("%.3f MW", v/1e6)
	case math.Abs(v) >= 1e3:
		return fmt.Sprintf("%.3f kW", v/1e3)
	default:
		return fmt.Sprintf("%.2f W", v)
	}
}

// String renders a duration in seconds.
func (s Seconds) String() string { return fmt.Sprintf("%.3fs", float64(s)) }

// String renders a size with an adaptive binary prefix.
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2f GiB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2f MiB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2f KiB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// Percent renders a fraction as a percentage string.
func (f Fraction) Percent() string { return fmt.Sprintf("%.1f%%", float64(f)*100) }

// Clamp limits f to the closed interval [0,1].
func (f Fraction) Clamp() Fraction {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Valid reports whether f is a well-formed normalized quantity: finite and
// within [0,1] up to a small tolerance for floating-point drift.
func (f Fraction) Valid() bool {
	v := float64(f)
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= -1e-9 && v <= 1+1e-9
}

// TransferTime returns how long moving b bytes takes at the given
// bandwidth (bytes per second). It returns +Inf seconds for zero bandwidth
// so that callers can detect an unusable link rather than divide by zero.
func TransferTime(b Bytes, bandwidth Bytes) Seconds {
	if bandwidth <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(bandwidth))
}
