// Package power_test checks the linear server power model of package
// server through its exported API.
package power_test

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/server"
	"ealb/internal/units"
)

func TestLinearModel(t *testing.T) {
	m, err := server.NewLinearPower(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u    units.Fraction
		want units.Watts
	}{
		{0, 100}, {0.5, 150}, {1, 200}, {-1, 100}, {2, 200},
	}
	for _, tt := range tests {
		if got := m.Power(tt.u); got != tt.want {
			t.Errorf("Power(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
	if m.Idle() != 100 || m.Peak() != 200 {
		t.Error("Idle/Peak wrong")
	}
}

func TestNewLinearValidation(t *testing.T) {
	cases := []struct{ idle, peak units.Watts }{
		{-1, 100}, {0, 0}, {200, 100}, {100, -5},
	}
	for _, c := range cases {
		if _, err := server.NewLinearPower(c.idle, c.peak); err == nil {
			t.Errorf("NewLinearPower(%v,%v) should fail", c.idle, c.peak)
		}
	}
}

func TestPowerMonotoneProperty(t *testing.T) {
	lin, _ := server.NewLinearPower(93, 186)
	models := []server.LinearPower{lin}
	f := func(a, b float64) bool {
		ua := units.Fraction(math.Abs(math.Mod(a, 1)))
		ub := units.Fraction(math.Abs(math.Mod(b, 1)))
		if ua > ub {
			ua, ub = ub, ua
		}
		for _, m := range models {
			if m.Power(ua) > m.Power(ub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
