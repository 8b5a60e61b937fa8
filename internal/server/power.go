package server

import (
	"fmt"

	"ealb/internal/units"
)

// PowerModel maps CPU utilization to electrical power draw: the
// power-vs-utilization model the paper builds on (§2), for
// non-energy-proportional servers that draw ~50% of peak power when
// idle.
type PowerModel interface {
	// Power returns the draw at utilization u in [0,1]. Implementations
	// clamp out-of-range inputs.
	Power(u units.Fraction) units.Watts
	// Idle returns the draw at zero utilization.
	Idle() units.Watts
	// Peak returns the draw at full utilization.
	Peak() units.Watts
}

// LinearPower is the standard affine server power model: idle floor plus
// a linear utilization-proportional component. Typical volume servers
// have Idle ≈ 0.5×Peak — the non-proportionality the paper targets.
type LinearPower struct {
	idleW units.Watts
	peakW units.Watts
}

// NewLinearPower builds a LinearPower model and validates idle <= peak.
func NewLinearPower(idle, peak units.Watts) (LinearPower, error) {
	if idle < 0 || peak <= 0 || idle > peak {
		return LinearPower{}, fmt.Errorf("power: invalid linear model idle=%v peak=%v", idle, peak)
	}
	return LinearPower{idleW: idle, peakW: peak}, nil
}

// Power implements PowerModel.
func (l LinearPower) Power(u units.Fraction) units.Watts {
	u = u.Clamp()
	return l.idleW + units.Watts(float64(l.peakW-l.idleW)*float64(u))
}

// Idle implements PowerModel.
func (l LinearPower) Idle() units.Watts { return l.idleW }

// Peak implements PowerModel.
func (l LinearPower) Peak() units.Watts { return l.peakW }
