// Package acpi_test checks the ACPI C-state table and the sleep
// break-even analysis of package server through its exported API.
package acpi_test

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/server"
	"ealb/internal/units"
)

func TestCStateString(t *testing.T) {
	if server.C0.String() != "C0" || server.C3.String() != "C3" || server.C6.String() != "C6" {
		t.Error("C-state names wrong")
	}
	if server.CState(9).String() != "CState(9)" {
		t.Error("unknown C-state must render with value")
	}
}

func TestDeeperSleepAlwaysDrawsLessProperty(t *testing.T) {
	specs := server.DefaultSpecs()
	f := func(a, b uint8, peakRaw uint16) bool {
		ca := server.CState(a%6) + 1
		cb := server.CState(b%6) + 1
		peak := units.Watts(peakRaw%5000) + 1
		if ca == cb {
			return true
		}
		// §2: the higher the state number, the deeper the sleep.
		deeper, shallower := ca, cb
		if cb > ca {
			deeper, shallower = cb, ca
		}
		return specs[deeper].SleepPower(peak) < specs[shallower].SleepPower(peak)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakEvenC3(t *testing.T) {
	specs := server.DefaultSpecs()
	// C3 on a 200 W / 100 W-idle server: saves 100-30=70 W while asleep;
	// overhead = wake 200*30 + enter 30*1 = 6030 J → ~86 s.
	be, err := server.BreakEven(specs[server.C3], 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := 6030.0 / 70
	if math.Abs(float64(be)-want) > 1e-9 {
		t.Errorf("C3 break-even = %v, want %v", be, want)
	}
}

func TestBreakEvenDeeperStatesNeedLonger(t *testing.T) {
	specs := server.DefaultSpecs()
	prev := units.Seconds(0)
	for _, c := range []server.CState{server.C3, server.C4, server.C5, server.C6} {
		be, err := server.BreakEven(specs[c], 200, 100)
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
	specs := server.DefaultSpecs()
	if _, err := server.BreakEven(specs[server.C0], 200, 100); err == nil {
		t.Error("C0 must error")
	}
	if _, err := server.BreakEven(specs[server.C3], 0, 0); err == nil {
		t.Error("zero peak must error")
	}
	if _, err := server.BreakEven(specs[server.C3], 100, 200); err == nil {
		t.Error("idle above peak must error")
	}
}
