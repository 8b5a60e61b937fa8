package server

import (
	"math"
	"testing"
)

func TestBreakEvenNeverPaysOff(t *testing.T) {
	spec := Spec{state: C1, sleepPowerFrac: 0.6, wakeLatency: 1, wakePowerFrac: 1}
	// Sleep draw 120 W above the 100 W idle: never saves.
	be, err := BreakEven(spec, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(be), 1) {
		t.Errorf("break-even = %v, want +Inf", be)
	}
}
