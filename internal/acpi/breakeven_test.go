package acpi

import (
	"math"
	"testing"

	"ealb/internal/units"
)

func TestBreakEvenC3(t *testing.T) {
	specs := DefaultSpecs()
	// C3 on a 200 W / 100 W-idle server: saves 100-30=70 W while asleep;
	// overhead = wake 200*30 + enter 30*1 = 6030 J → ~86 s.
	be, err := BreakEven(specs[C3], 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 6030.0 / 70
	if math.Abs(float64(be)-want) > 1e-9 {
		t.Errorf("C3 break-even = %v, want %v", be, want)
	}
}

func TestBreakEvenDeeperStatesNeedLonger(t *testing.T) {
	specs := DefaultSpecs()
	prev := units.Seconds(0)
	for _, c := range []CState{C3, C4, C5, C6} {
		be, err := BreakEven(specs[c], 200, 100)
		if err != nil {
			t.Fatal(err)
		}
		if be <= prev {
			t.Errorf("%v break-even %v not above previous %v — deeper states must need longer idle periods", c, be, prev)
		}
		prev = be
	}
}

func TestBreakEvenErrors(t *testing.T) {
	specs := DefaultSpecs()
	if _, err := BreakEven(specs[C0], 200, 100); err == nil {
		t.Error("C0 must error")
	}
	if _, err := BreakEven(specs[C3], 0, 0); err == nil {
		t.Error("zero peak must error")
	}
	if _, err := BreakEven(specs[C3], 100, 200); err == nil {
		t.Error("idle above peak must error")
	}
}

func TestBreakEvenNeverPaysOff(t *testing.T) {
	spec := Spec{State: C1, SleepPowerFrac: 0.6, WakeLatency: 1, WakePowerFrac: 1}
	// Sleep draw 120 W above the 100 W idle: never saves.
	be, err := BreakEven(spec, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(be), 1) {
		t.Errorf("break-even = %v, want +Inf", be)
	}
}
