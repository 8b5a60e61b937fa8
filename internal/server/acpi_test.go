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

func TestNewManagerValidation(t *testing.T) {
	if _, err := newACPIManager(0, nil); err == nil {
		t.Error("zero peak must fail")
	}
	bad := DefaultSpecs()
	delete(bad, C4)
	if _, err := newACPIManager(100, bad); err == nil {
		t.Error("incomplete spec table must fail")
	}
}

func TestManagerSleepWakeCycle(t *testing.T) {
	m, err := newACPIManager(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.state != C0 {
		t.Fatal("manager must start in C0")
	}
	ready, err := m.sleep(C3, 100)
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
	if m.sleepCount != 1 {
		t.Errorf("SleepCount = %d", m.sleepCount)
	}
	// Sleep power of C3 = 0.15 * 200 = 30 W.
	if got := m.sleepPower(); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("SleepPower = %v, want 30", got)
	}

	ready, err = m.wake(200)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 230 { // C3 wake latency 30s
		t.Errorf("wake completes at %v, want 230", ready)
	}
	if m.state != C0 || m.wakeCount != 1 {
		t.Error("wake bookkeeping wrong")
	}
	// Wake energy: peak * 30s = 6000 J, plus the small C3 entry charge.
	if e := m.transitionEnergy; float64(e) < 6000 {
		t.Errorf("TransitionEnergy = %v, want >= 6000 J", e)
	}
}

func TestManagerRejectsInvalidTransitions(t *testing.T) {
	m, _ := newACPIManager(200, nil)
	if _, err := m.sleep(C0, 0); err == nil {
		t.Error("sleeping to C0 must fail")
	}
	if _, err := m.wake(0); err == nil {
		t.Error("waking a running server must fail")
	}
	if _, err := m.sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.sleep(C3, 1000); err == nil {
		t.Error("sleeping while asleep must fail")
	}
	// Wake during the enter transition must fail (C6 enter latency 5s).
	if _, err := m.wake(2); err == nil {
		t.Error("waking during an in-flight transition must fail")
	}
	if _, err := m.wake(10); err != nil {
		t.Errorf("wake after transition completes: %v", err)
	}
}

func TestManagerSleepPowerPanicsInC0(t *testing.T) {
	m, _ := newACPIManager(200, nil)
	defer func() {
		if recover() == nil {
			t.Error("SleepPower in C0 must panic")
		}
	}()
	m.sleepPower()
}

func TestManagerSpecLookup(t *testing.T) {
	m, _ := newACPIManager(200, nil)
	s, err := m.spec(C6)
	if err != nil || s.state != C6 {
		t.Error("Spec(C6) lookup failed")
	}
	if _, err := m.spec(CState(42)); err == nil {
		t.Error("unknown state must error")
	}
}

func TestManagerCrash(t *testing.T) {
	m, err := newACPIManager(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-sleep-entry: the transition is abandoned, the state is
	// back in C0, and the already-spent entry energy is kept.
	if _, err := m.sleep(C6, 100); err != nil {
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
	if _, err := m.sleep(C3, 200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.wake(300); err != nil {
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
	if _, err := m.sleep(C3, 400); err != nil {
		t.Errorf("sleep after crash: %v", err)
	}
}

// TestManagerReset: Reset must return the manager to its initial state
// with a new peak, so a recycled server's ACPI history starts clean.
func TestManagerReset(t *testing.T) {
	m, err := newACPIManager(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.sleep(C3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.wake(100); err != nil {
		t.Fatal(err)
	}
	if m.transitionEnergy == 0 || m.wakeCount != 1 {
		t.Fatal("setup: expected transition history")
	}

	if err := m.reset(300); err != nil {
		t.Fatal(err)
	}
	if m.state != C0 || m.busy(0) || m.transitionEnergy != 0 ||
		m.wakeCount != 0 || m.sleepCount != 0 {
		t.Errorf("Reset left history: state=%v busy=%v energy=%v wakes=%d sleeps=%d",
			m.state, m.busy(0), m.transitionEnergy, m.wakeCount, m.sleepCount)
	}
	// The new peak must drive sleep power.
	if _, err := m.sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	spec, err := m.spec(C6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.sleepPower(), spec.SleepPower(300); got != want {
		t.Errorf("sleep power %v, want %v (new peak not applied)", got, want)
	}
	if err := m.reset(0); err == nil {
		t.Error("Reset accepted a non-positive peak")
	}
}
