// Package power models server power consumption.
//
// It provides the power-vs-utilization model the paper builds on (§2):
// non-energy-proportional servers that draw ~50% of peak power when
// idle. On top of the raw model it exposes the paper's normalized
// quantities: b(t), the normalized energy consumption (current power /
// peak power), and a(t), the normalized performance, with a(t) = f(b(t))
// linking the two axes of the paper's Figure 1. The package also carries
// the historical server-power constants of the paper's Table 1 (Koomey's
// volume / mid-range / high-end averages, 2000-2006).
package power

import (
	"fmt"

	"ealb/internal/units"
)

// Model maps CPU utilization to electrical power draw.
type Model interface {
	// Power returns the draw at utilization u in [0,1]. Implementations
	// clamp out-of-range inputs.
	Power(u units.Fraction) units.Watts
	// Idle returns the draw at zero utilization.
	Idle() units.Watts
	// Peak returns the draw at full utilization.
	Peak() units.Watts
}

// Linear is the standard affine server power model: idle floor plus a
// linear utilization-proportional component. Typical volume servers have
// Idle ≈ 0.5×Peak — the non-proportionality the paper targets.
type Linear struct {
	IdleW units.Watts
	PeakW units.Watts
}

// NewLinear builds a Linear model and validates idle <= peak.
func NewLinear(idle, peak units.Watts) (Linear, error) {
	if idle < 0 || peak <= 0 || idle > peak {
		return Linear{}, fmt.Errorf("power: invalid linear model idle=%v peak=%v", idle, peak)
	}
	return Linear{IdleW: idle, PeakW: peak}, nil
}

// Power implements Model.
func (l Linear) Power(u units.Fraction) units.Watts {
	u = u.Clamp()
	return l.IdleW + units.Watts(float64(l.PeakW-l.IdleW)*float64(u))
}

// Idle implements Model.
func (l Linear) Idle() units.Watts { return l.IdleW }

// Peak implements Model.
func (l Linear) Peak() units.Watts { return l.PeakW }

// NormalizedEnergy returns b(t) = current power / peak power for model m at
// utilization u — the horizontal axis of the paper's Figure 1.
func NormalizedEnergy(m Model, u units.Fraction) units.Fraction {
	peak := m.Peak()
	if peak <= 0 {
		return 0
	}
	return units.Fraction(float64(m.Power(u)) / float64(peak))
}
