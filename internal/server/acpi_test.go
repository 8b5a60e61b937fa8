package server

import (
	"math"
	"testing"

	"ealb/internal/units"
)

func TestCStatePredicates(t *testing.T) {
	if C0.Sleeping() {
		t.Error("C0 is not a sleep state")
	}
	for c := C1; c <= C6; c++ {
		if !c.Sleeping() {
			t.Errorf("%v must be a sleep state", c)
		}
	}
	if CState(-1).valid() || CState(7).valid() {
		t.Error("out-of-range states must be invalid")
	}
}

func TestDefaultSpecsMonotone(t *testing.T) {
	// §2: the higher the state number, the deeper the sleep, the larger
	// the energy saved, and the longer the wake-up.
	specs := DefaultSpecs()
	for c := C1; c < C6; c++ {
		cur, next := specs[c], specs[c+1]
		if next.sleepPowerFrac >= cur.sleepPowerFrac {
			t.Errorf("%v sleep power %v not below %v's %v", c+1, next.sleepPowerFrac, c, cur.sleepPowerFrac)
		}
		if next.wakeLatency <= cur.wakeLatency {
			t.Errorf("%v wake latency %v not above %v's %v", c+1, next.wakeLatency, c, cur.wakeLatency)
		}
	}
	// The deepest state's wake latency matches the 260s setup figure [9].
	if specs[C6].wakeLatency != 260 {
		t.Errorf("C6 wake latency = %v, want 260s", specs[C6].wakeLatency)
	}
}

func TestWakeEnergyDeeperCostsMore(t *testing.T) {
	specs := DefaultSpecs()
	peak := units.Watts(200)
	if specs[C6].wakeEnergy(peak) <= specs[C3].wakeEnergy(peak) {
		t.Error("waking from C6 must cost more energy than from C3 (§6)")
	}
}

func TestSpecSleepPower(t *testing.T) {
	s := Spec{sleepPowerFrac: 0.15}
	if got := s.SleepPower(200); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("SleepPower = %v, want 30", got)
	}
}

// TestNewManagerValidation: the zero manager is a server in C0 with
// nothing armed, and the peak power its transitions are charged at is
// validated where a server takes its power model.
func TestNewManagerValidation(t *testing.T) {
	var m acpiManager
	if m.state != C0 || m.busy(0) || m.transitionEnergy != 0 {
		t.Errorf("zero manager: state=%v busy=%v energy=%v", m.state, m.busy(0), m.transitionEnergy)
	}
	var s Server
	if err := s.Reset(Config{ID: 1, Boundaries: Boundaries{SoptLow: 0.2, OptLow: 0.3, OptHigh: 0.7, SoptHigh: 0.85}}); err == nil {
		t.Error("zero peak must fail")
	}
}

func TestManagerSleepWakeCycle(t *testing.T) {
	var m acpiManager
	ready, err := m.sleep(C3, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if m.state != C3 {
		t.Errorf("state = %v, want C3", m.state)
	}
	if ready != 101 { // C3 enter latency 1s
		t.Errorf("sleep completes at %v, want 101", ready)
	}
	if !m.busy(100.5) || m.busy(101) {
		t.Error("busy window wrong")
	}
	// Sleep power of C3 = 0.15 * 200 = 30 W.
	if got := m.sleepPower(200); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("SleepPower = %v, want 30", got)
	}

	ready, err = m.wake(200, 200)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 230 { // C3 wake latency 30s
		t.Errorf("wake completes at %v, want 230", ready)
	}
	if m.state != C0 {
		t.Error("wake bookkeeping wrong")
	}
	// Wake energy: peak * 30s = 6000 J, plus the small C3 entry charge.
	if e := m.transitionEnergy; float64(e) < 6000 {
		t.Errorf("TransitionEnergy = %v, want >= 6000 J", e)
	}
}

func TestManagerRejectsInvalidTransitions(t *testing.T) {
	var m acpiManager
	if _, err := m.sleep(C0, 0, 200); err == nil {
		t.Error("sleeping to C0 must fail")
	}
	if _, err := m.sleep(CState(7), 0, 200); err == nil {
		t.Error("sleeping to an undefined state must fail")
	}
	if _, err := m.wake(0, 200); err == nil {
		t.Error("waking a running server must fail")
	}
	if _, err := m.sleep(C6, 0, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.sleep(C3, 1000, 200); err == nil {
		t.Error("sleeping while asleep must fail")
	}
	// Wake during the enter transition must fail (C6 enter latency 5s).
	if _, err := m.wake(2, 200); err == nil {
		t.Error("waking during an in-flight transition must fail")
	}
	if _, err := m.wake(10, 200); err != nil {
		t.Errorf("wake after transition completes: %v", err)
	}
}

func TestManagerSleepPowerPanicsInC0(t *testing.T) {
	var m acpiManager
	defer func() {
		if recover() == nil {
			t.Error("SleepPower in C0 must panic")
		}
	}()
	m.sleepPower(200)
}

// TestManagerSpecLookup: the spec table holds every state at its own
// index, and DefaultSpecs hands out a copy the table does not share.
func TestManagerSpecLookup(t *testing.T) {
	for c := C0; c <= C6; c++ {
		if specTable[c].state != c {
			t.Errorf("specTable[%v] holds %v", c, specTable[c].state)
		}
	}
	specs := DefaultSpecs()
	if specs != specTable {
		t.Error("DefaultSpecs differs from the table")
	}
	specs[C6].wakeLatency = 1
	if specTable[C6].wakeLatency != 260 {
		t.Error("DefaultSpecs shares the table")
	}
}

func TestManagerCrash(t *testing.T) {
	var m acpiManager
	// Crash mid-sleep-entry: the transition is abandoned, the state is
	// back in C0, and the already-spent entry energy is kept.
	if _, err := m.sleep(C6, 100, 200); err != nil {
		t.Fatal(err)
	}
	if !m.busy(102) {
		t.Fatal("C6 entry should be in flight at t=102")
	}
	spent := m.transitionEnergy
	m.crash()
	if m.state != C0 || m.busy(102) {
		t.Errorf("after crash: state=%v busy=%v, want C0 idle", m.state, m.busy(102))
	}
	if m.transitionEnergy != spent {
		t.Errorf("crash altered transition energy: %v -> %v", spent, m.transitionEnergy)
	}

	// Crash mid-wake: same contract, and no wake energy is charged twice.
	if _, err := m.sleep(C3, 200, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.wake(300, 200); err != nil {
		t.Fatal(err)
	}
	if !m.busy(310) {
		t.Fatal("C3 wake should be in flight at t=310")
	}
	spent = m.transitionEnergy
	m.crash()
	if m.state != C0 || m.busy(310) || m.transitionEnergy != spent {
		t.Error("crash mid-wake left transition state or energy inconsistent")
	}
	// A crashed (rebooted) manager accepts a fresh sleep immediately.
	if _, err := m.sleep(C3, 400, 200); err != nil {
		t.Errorf("sleep after crash: %v", err)
	}
}

// TestManagerReset: Reset must return the manager to its initial state
// with a new peak, so a recycled server's ACPI history starts clean.
func TestManagerReset(t *testing.T) {
	s := newServer(t)
	if err := s.Sleep(C3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wake(100); err != nil {
		t.Fatal(err)
	}
	if s.acpi.transitionEnergy == 0 || !s.CStateBusy(110) {
		t.Fatal("setup: expected transition history")
	}

	if err := s.Reset(resetConfig(t, 1, 300)); err != nil {
		t.Fatal(err)
	}
	if s.acpi != (acpiManager{}) {
		t.Errorf("Reset left history: %+v", s.acpi)
	}
	// The new peak must drive sleep power.
	if err := s.Sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := s.acpi.sleepPower(s.pm.Peak()), specTable[C6].SleepPower(300); got != want {
		t.Errorf("sleep power %v, want %v (new peak not applied)", got, want)
	}
	bad := resetConfig(t, 1, 300)
	bad.Power = LinearPower{}
	if err := s.Reset(bad); err == nil {
		t.Error("Reset accepted a non-positive peak")
	}
}
