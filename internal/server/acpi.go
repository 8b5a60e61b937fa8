package server

import (
	"fmt"

	"ealb/internal/units"
)

// The ACPI processor C-states (C0-C6) the paper builds its sleep strategy
// on (§2 "Sleep states").
//
// The paper abstracts each sleep state into three observables — the power
// drawn while asleep, the latency to return to the running state C0, and
// the energy spent during the wake-up (reported to be close to the peak
// draw for the whole setup period, which can reach 260 seconds [9]). This
// file encodes exactly those observables; acpiManager does the
// energy/time bookkeeping of one server's transitions.
//
// The deeper the state, the lower the sleep power and the longer (and more
// expensive) the wake-up: the C3-versus-C6 trade-off that the cluster
// protocol's 60% rule (§6) arbitrates.

// CState is a processor sleep state. C0 is fully operational; higher
// numbers cut clocks (C1-C3) and then reduce voltage (C4-C6).
type CState int

// Processor power states.
const (
	C0 CState = iota // fully operational
	C1               // main internal clock stopped, bus + APIC running
	C2               // more clocks gated
	C3               // all internal clocks stopped
	C4               // voltage reduced
	C5               // further voltage reduction
	C6               // deepest sleep, near-zero draw
)

// String implements fmt.Stringer.
func (c CState) String() string {
	if c < C0 || c > C6 {
		return fmt.Sprintf("CState(%d)", int(c))
	}
	return [...]string{"C0", "C1", "C2", "C3", "C4", "C5", "C6"}[c]
}

// valid reports whether c is a defined processor state.
func (c CState) valid() bool { return c >= C0 && c <= C6 }

// Sleeping reports whether c is any state other than the running state C0.
func (c CState) Sleeping() bool { return c.valid() && c != C0 }

// Spec captures the observable behaviour of one sleep state.
type Spec struct {
	state CState
	// sleepPowerFrac is the power drawn while in the state, as a fraction
	// of the server's peak power.
	sleepPowerFrac units.Fraction
	// wakeLatency is the time to return to C0.
	wakeLatency units.Seconds
	// wakePowerFrac is the draw during wake-up as a fraction of peak; the
	// paper reports setup-phase consumption "close to the maximal one".
	wakePowerFrac units.Fraction
	// enterLatency is the time to transition into the state from C0.
	enterLatency units.Seconds
}

// wakeEnergy returns the energy cost of one wake-up for a server with the
// given peak power.
func (s Spec) wakeEnergy(peak units.Watts) units.Joules {
	return units.Energy(units.Watts(float64(peak)*float64(s.wakePowerFrac)), s.wakeLatency)
}

// SleepPower returns the draw while parked in the state.
func (s Spec) SleepPower(peak units.Watts) units.Watts {
	return units.Watts(float64(peak) * float64(s.sleepPowerFrac))
}

// specTable is the sleep-state table the simulations use, indexed by
// CState. C0's entry is a placeholder (its power comes from the power
// model, not the table). The C3/C6 wake latencies bracket the range the
// paper quotes: tens of seconds for a shallow server sleep up to the
// 260-second setup time of [9] for the deepest state. Every server reads
// this one table, so a server carries its state, not a table pointer.
var specTable = [C6 + 1]Spec{
	C0: {state: C0, sleepPowerFrac: 1.00, wakeLatency: 0, wakePowerFrac: 0, enterLatency: 0},
	C1: {state: C1, sleepPowerFrac: 0.55, wakeLatency: 0.01, wakePowerFrac: 1, enterLatency: 0.001},
	C2: {state: C2, sleepPowerFrac: 0.45, wakeLatency: 0.1, wakePowerFrac: 1, enterLatency: 0.01},
	C3: {state: C3, sleepPowerFrac: 0.15, wakeLatency: 30, wakePowerFrac: 1, enterLatency: 1},
	C4: {state: C4, sleepPowerFrac: 0.10, wakeLatency: 60, wakePowerFrac: 1, enterLatency: 2},
	C5: {state: C5, sleepPowerFrac: 0.05, wakeLatency: 120, wakePowerFrac: 1, enterLatency: 3},
	C6: {state: C6, sleepPowerFrac: 0.02, wakeLatency: 260, wakePowerFrac: 1, enterLatency: 5},
}

// DefaultSpecs returns a copy of the sleep-state table, indexed by
// CState.
func DefaultSpecs() [C6 + 1]Spec { return specTable }
