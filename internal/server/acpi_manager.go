package server

import (
	"fmt"

	"ealb/internal/units"
)

// acpiManager tracks the sleep state of one server and accounts for the
// time and energy spent in states and transitions. It is the piece of the
// hypervisor the paper calls "the energy management component" (§3).
type acpiManager struct {
	specs map[CState]Spec
	peak  units.Watts

	// state is the current sleep state. During a transition it is
	// already the target state; busy reports transition progress.
	state CState
	// cur caches specs[state] so the per-interval accounting of a parked
	// server (sleepPower) never touches the spec map.
	cur Spec
	// busyUntil is the simulation time at which the in-flight transition
	// (if any) completes; the manager rejects new transitions before then.
	busyUntil units.Seconds

	// transitionEnergy is the cumulative energy spent in transitions;
	// wakeCount and sleepCount count sleep→C0 and C0→sleep transitions.
	transitionEnergy units.Joules
	wakeCount        int
	sleepCount       int
}

// sharedDefaultSpecs is the one default spec table all default-configured
// managers share. Managers only ever read their table, so sharing it (even
// across clusters simulated in parallel) is safe and saves one 7-entry map
// per server — which matters when a farm instantiates 10⁶ of them.
var sharedDefaultSpecs = DefaultSpecs()

// newACPIManager returns a manager for a server with the given peak power,
// starting in C0 (all servers begin operational, per §4). A nil specs map
// selects DefaultSpecs.
func newACPIManager(peak units.Watts, specs map[CState]Spec) (*acpiManager, error) {
	if peak <= 0 {
		return nil, fmt.Errorf("acpi: non-positive peak power %v", peak)
	}
	if specs == nil {
		specs = sharedDefaultSpecs
	}
	for c := C0; c <= C6; c++ {
		if _, ok := specs[c]; !ok {
			return nil, fmt.Errorf("acpi: specs missing %v", c)
		}
	}
	return &acpiManager{specs: specs, peak: peak, state: C0, cur: specs[C0]}, nil
}

// reset returns the manager to its initial state — C0, no transition in
// flight, no accumulated energy or transition counts — with a new peak
// power, reusing the spec table. It is the arena path of server reuse: a
// reset manager behaves exactly like one freshly built by newACPIManager.
func (m *acpiManager) reset(peak units.Watts) error {
	if peak <= 0 {
		return fmt.Errorf("acpi: non-positive peak power %v", peak)
	}
	m.peak = peak
	m.state = C0
	m.cur = m.specs[C0]
	m.busyUntil = 0
	m.transitionEnergy = 0
	m.wakeCount = 0
	m.sleepCount = 0
	return nil
}

// busy reports whether a transition is still in flight at time now.
func (m *acpiManager) busy(now units.Seconds) bool { return now < m.busyUntil }

// spec returns the spec of state c.
func (m *acpiManager) spec(c CState) (Spec, error) {
	s, ok := m.specs[c]
	if !ok {
		return Spec{}, fmt.Errorf("acpi: unknown state %v", c)
	}
	return s, nil
}

// sleep moves the server from C0 into sleep state target at time now.
// It returns the time at which the server is parked in the target state.
func (m *acpiManager) sleep(target CState, now units.Seconds) (units.Seconds, error) {
	if !target.Sleeping() {
		return 0, fmt.Errorf("acpi: Sleep target %v is not a sleep state", target)
	}
	if m.state != C0 {
		return 0, fmt.Errorf("acpi: Sleep from %v; server must be running", m.state)
	}
	if m.busy(now) {
		return 0, fmt.Errorf("acpi: transition in flight until %v", m.busyUntil)
	}
	spec := m.specs[target]
	// Entering a sleep state costs the enter latency at roughly idle-level
	// draw; we charge the sleep-state power for it, a small conservative
	// under-count compared to wake costs which dominate by orders of
	// magnitude.
	m.transitionEnergy += units.Energy(spec.SleepPower(m.peak), spec.enterLatency)
	m.state = target
	m.cur = spec
	m.busyUntil = now + spec.enterLatency
	m.sleepCount++
	return m.busyUntil, nil
}

// wake starts the transition back to C0 at time now. It returns the time
// at which the server is operational and charges the wake energy (near
// peak draw for the whole setup time, per [9]).
func (m *acpiManager) wake(now units.Seconds) (units.Seconds, error) {
	if m.state == C0 {
		return 0, fmt.Errorf("acpi: Wake while already running")
	}
	if m.busy(now) {
		return 0, fmt.Errorf("acpi: transition in flight until %v", m.busyUntil)
	}
	spec := m.cur
	m.transitionEnergy += spec.wakeEnergy(m.peak)
	m.state = C0
	m.cur = m.specs[C0]
	m.busyUntil = now + spec.wakeLatency
	m.wakeCount++
	return m.busyUntil, nil
}

// crash abandons any in-flight transition and returns the manager to C0
// without charging wake energy: the server lost power, so its next state
// change is a reboot, not an ACPI transition. Accumulated transition
// energy and counters are kept — that energy was really spent before the
// crash. The caller owns the outage itself (a crashed server draws
// nothing until repaired); Crash only reconciles the transition state so
// a repaired server provably rejoins in C0 with nothing armed.
func (m *acpiManager) crash() {
	m.state = C0
	m.cur = m.specs[C0]
	m.busyUntil = 0
}

// sleepPower returns the draw of the current state while asleep. Calling
// it in C0 is a programming error (operational power comes from the power
// model, not from the ACPI table) and panics.
func (m *acpiManager) sleepPower() units.Watts {
	if m.state == C0 {
		panic("acpi: SleepPower while running; use the power model")
	}
	return m.cur.SleepPower(m.peak)
}
