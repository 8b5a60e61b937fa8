package server

import (
	"fmt"

	"ealb/internal/units"
)

// acpiManager tracks the sleep state of one server and accounts for the
// time and energy spent in states and transitions. It is the piece of the
// hypervisor the paper calls "the energy management component" (§3).
// It is held by value inside its Server: the state specs come from the
// package table and the peak power from the server's power model, which
// the transitions take as an argument. The zero value is a server in C0
// with nothing armed and no transition energy spent.
type acpiManager struct {
	// state is the current sleep state. During a transition it is
	// already the target state; busy reports transition progress.
	state CState
	// busyUntil is the simulation time at which the in-flight transition
	// (if any) completes; the manager rejects new transitions before then.
	busyUntil units.Seconds
	// transitionEnergy is the cumulative energy spent in transitions.
	transitionEnergy units.Joules
}

// busy reports whether a transition is still in flight at time now.
func (m *acpiManager) busy(now units.Seconds) bool { return now < m.busyUntil }

// sleep moves the server from C0 into sleep state target at time now.
// It returns the time at which the server is parked in the target state.
func (m *acpiManager) sleep(target CState, now units.Seconds, peak units.Watts) (units.Seconds, error) {
	if !target.Sleeping() {
		return 0, fmt.Errorf("acpi: Sleep target %v is not a sleep state", target)
	}
	if m.state != C0 {
		return 0, fmt.Errorf("acpi: Sleep from %v; server must be running", m.state)
	}
	if m.busy(now) {
		return 0, fmt.Errorf("acpi: transition in flight until %v", m.busyUntil)
	}
	spec := &specTable[target]
	// Entering a sleep state costs the enter latency at roughly idle-level
	// draw; we charge the sleep-state power for it, a small conservative
	// under-count compared to wake costs which dominate by orders of
	// magnitude.
	m.transitionEnergy += units.Energy(spec.SleepPower(peak), spec.enterLatency)
	m.state = target
	m.busyUntil = now + spec.enterLatency
	return m.busyUntil, nil
}

// wake starts the transition back to C0 at time now. It returns the time
// at which the server is operational and charges the wake energy (near
// peak draw for the whole setup time, per [9]).
func (m *acpiManager) wake(now units.Seconds, peak units.Watts) (units.Seconds, error) {
	if m.state == C0 {
		return 0, fmt.Errorf("acpi: Wake while already running")
	}
	if m.busy(now) {
		return 0, fmt.Errorf("acpi: transition in flight until %v", m.busyUntil)
	}
	spec := &specTable[m.state]
	m.transitionEnergy += spec.wakeEnergy(peak)
	m.state = C0
	m.busyUntil = now + spec.wakeLatency
	return m.busyUntil, nil
}

// crash abandons any in-flight transition and returns the manager to C0
// without charging wake energy: the server lost power, so its next state
// change is a reboot, not an ACPI transition. Accumulated transition
// energy is kept — that energy was really spent before the crash. The
// caller owns the outage itself (a crashed server draws nothing until
// repaired); crash only reconciles the transition state so a repaired
// server provably rejoins in C0 with nothing armed.
func (m *acpiManager) crash() {
	m.state = C0
	m.busyUntil = 0
}

// sleepPower returns the draw of the current state while asleep. Calling
// it in C0 is a programming error (operational power comes from the power
// model, not from the ACPI table) and panics.
func (m *acpiManager) sleepPower(peak units.Watts) units.Watts {
	if m.state == C0 {
		panic("acpi: SleepPower while running; use the power model")
	}
	return specTable[m.state].SleepPower(peak)
}
