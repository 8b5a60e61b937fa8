package server

import (
	"fmt"

	"ealb/internal/units"
)

// LinearPower is the standard affine server power model — the
// power-vs-utilization model the paper builds on (§2): idle floor plus
// a linear utilization-proportional component. Typical volume servers
// have Idle ≈ 0.5×Peak — the non-proportionality the paper targets.
// A Server holds its model by value.
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

// Power returns the draw at utilization u, clamped to [0,1].
func (l LinearPower) Power(u units.Fraction) units.Watts {
	u = u.Clamp()
	return l.idleW + units.Watts(float64(l.peakW-l.idleW)*float64(u))
}

// Idle returns the draw at zero utilization.
func (l LinearPower) Idle() units.Watts { return l.idleW }

// Peak returns the draw at full utilization.
func (l LinearPower) Peak() units.Watts { return l.peakW }
