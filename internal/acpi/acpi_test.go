package acpi

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/units"
)

func TestCStateString(t *testing.T) {
	if C0.String() != "C0" || C3.String() != "C3" || C6.String() != "C6" {
		t.Error("C-state names wrong")
	}
	if CState(9).String() != "CState(9)" {
		t.Error("unknown C-state must render with value")
	}
}

func TestCStatePredicates(t *testing.T) {
	if C0.Sleeping() {
		t.Error("C0 is not a sleep state")
	}
	for c := C1; c <= C6; c++ {
		if !c.Sleeping() {
			t.Errorf("%v must be a sleep state", c)
		}
	}
	if CState(-1).Valid() || CState(7).Valid() {
		t.Error("out-of-range states must be invalid")
	}
}

func TestDefaultSpecsMonotone(t *testing.T) {
	// §2: the higher the state number, the deeper the sleep, the larger
	// the energy saved, and the longer the wake-up.
	specs := DefaultSpecs()
	for c := C1; c < C6; c++ {
		cur, next := specs[c], specs[c+1]
		if next.SleepPowerFrac >= cur.SleepPowerFrac {
			t.Errorf("%v sleep power %v not below %v's %v", c+1, next.SleepPowerFrac, c, cur.SleepPowerFrac)
		}
		if next.WakeLatency <= cur.WakeLatency {
			t.Errorf("%v wake latency %v not above %v's %v", c+1, next.WakeLatency, c, cur.WakeLatency)
		}
	}
	// The deepest state's wake latency matches the 260s setup figure [9].
	if specs[C6].WakeLatency != 260 {
		t.Errorf("C6 wake latency = %v, want 260s", specs[C6].WakeLatency)
	}
}

func TestWakeEnergyDeeperCostsMore(t *testing.T) {
	specs := DefaultSpecs()
	peak := units.Watts(200)
	if specs[C6].WakeEnergy(peak) <= specs[C3].WakeEnergy(peak) {
		t.Error("waking from C6 must cost more energy than from C3 (§6)")
	}
}

func TestSpecSleepPower(t *testing.T) {
	s := Spec{SleepPowerFrac: 0.15}
	if got := s.SleepPower(200); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("SleepPower = %v, want 30", got)
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(0, nil); err == nil {
		t.Error("zero peak must fail")
	}
	bad := DefaultSpecs()
	delete(bad, C4)
	if _, err := NewManager(100, bad); err == nil {
		t.Error("incomplete spec table must fail")
	}
}

func TestManagerSleepWakeCycle(t *testing.T) {
	m, err := NewManager(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != C0 {
		t.Fatal("manager must start in C0")
	}
	ready, err := m.Sleep(C3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != C3 {
		t.Errorf("state = %v, want C3", m.State())
	}
	if ready != 101 { // C3 enter latency 1s
		t.Errorf("sleep completes at %v, want 101", ready)
	}
	if !m.Busy(100.5) || m.Busy(101) {
		t.Error("busy window wrong")
	}
	if m.SleepCount() != 1 {
		t.Errorf("SleepCount = %d", m.SleepCount())
	}
	// Sleep power of C3 = 0.15 * 200 = 30 W.
	if got := m.SleepPower(); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("SleepPower = %v, want 30", got)
	}

	ready, err = m.Wake(200)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 230 { // C3 wake latency 30s
		t.Errorf("wake completes at %v, want 230", ready)
	}
	if m.State() != C0 || m.WakeCount() != 1 {
		t.Error("wake bookkeeping wrong")
	}
	// Wake energy: peak * 30s = 6000 J, plus the small C3 entry charge.
	if e := m.TransitionEnergy(); float64(e) < 6000 {
		t.Errorf("TransitionEnergy = %v, want >= 6000 J", e)
	}
}

func TestManagerRejectsInvalidTransitions(t *testing.T) {
	m, _ := NewManager(200, nil)
	if _, err := m.Sleep(C0, 0); err == nil {
		t.Error("sleeping to C0 must fail")
	}
	if _, err := m.Wake(0); err == nil {
		t.Error("waking a running server must fail")
	}
	if _, err := m.Sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sleep(C3, 1000); err == nil {
		t.Error("sleeping while asleep must fail")
	}
	// Wake during the enter transition must fail (C6 enter latency 5s).
	if _, err := m.Wake(2); err == nil {
		t.Error("waking during an in-flight transition must fail")
	}
	if _, err := m.Wake(10); err != nil {
		t.Errorf("wake after transition completes: %v", err)
	}
}

func TestManagerSleepPowerPanicsInC0(t *testing.T) {
	m, _ := NewManager(200, nil)
	defer func() {
		if recover() == nil {
			t.Error("SleepPower in C0 must panic")
		}
	}()
	m.SleepPower()
}

func TestManagerSpecLookup(t *testing.T) {
	m, _ := NewManager(200, nil)
	s, err := m.Spec(C6)
	if err != nil || s.State != C6 {
		t.Error("Spec(C6) lookup failed")
	}
	if _, err := m.Spec(CState(42)); err == nil {
		t.Error("unknown state must error")
	}
}

func TestDeeperSleepAlwaysDrawsLessProperty(t *testing.T) {
	specs := DefaultSpecs()
	f := func(a, b uint8, peakRaw uint16) bool {
		ca := CState(a%6) + 1
		cb := CState(b%6) + 1
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

func TestManagerCrash(t *testing.T) {
	m, err := NewManager(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-sleep-entry: the transition is abandoned, the state is
	// back in C0, and the already-spent entry energy is kept.
	if _, err := m.Sleep(C6, 100); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(102) {
		t.Fatal("C6 entry should be in flight at t=102")
	}
	spent := m.TransitionEnergy()
	m.Crash()
	if m.State() != C0 || m.Busy(102) {
		t.Errorf("after crash: state=%v busy=%v, want C0 idle", m.State(), m.Busy(102))
	}
	if m.TransitionEnergy() != spent {
		t.Errorf("crash altered transition energy: %v -> %v", spent, m.TransitionEnergy())
	}

	// Crash mid-wake: same contract, and no wake energy is charged twice.
	if _, err := m.Sleep(C3, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wake(300); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(310) {
		t.Fatal("C3 wake should be in flight at t=310")
	}
	spent = m.TransitionEnergy()
	m.Crash()
	if m.State() != C0 || m.Busy(310) || m.TransitionEnergy() != spent {
		t.Error("crash mid-wake left transition state or energy inconsistent")
	}
	// A crashed (rebooted) manager accepts a fresh sleep immediately.
	if _, err := m.Sleep(C3, 400); err != nil {
		t.Errorf("sleep after crash: %v", err)
	}
}
