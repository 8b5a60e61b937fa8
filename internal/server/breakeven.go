package server

import (
	"fmt"
	"math"

	"ealb/internal/units"
)

// BreakEven answers the paper's question 3 (§3): how long must a server
// stay asleep in state c for the sleep to save energy at all, given that
// entering and (especially) waking cost energy?
//
// While asleep the server saves idle − sleepPower per second relative to
// staying idle in C0; the transition overhead is the enter-phase energy
// plus the wake-up energy (near peak draw for the whole setup time). The
// break-even duration is the ratio of the two. Sleeping for less than
// this duration wastes energy — the reason reactive policies that flap
// servers on and off can consume more than they save.
func BreakEven(spec Spec, peak, idle units.Watts) (units.Seconds, error) {
	if peak <= 0 || idle < 0 || idle > peak {
		return 0, fmt.Errorf("acpi: invalid power levels peak=%v idle=%v", peak, idle)
	}
	if !spec.state.Sleeping() {
		return 0, fmt.Errorf("acpi: %v is not a sleep state", spec.state)
	}
	saving := idle - spec.SleepPower(peak)
	if saving <= 0 {
		// The state draws at least as much as idling: never pays off.
		return units.Seconds(math.Inf(1)), nil
	}
	overhead := spec.wakeEnergy(peak) + units.Energy(spec.SleepPower(peak), spec.enterLatency)
	return units.Seconds(float64(overhead) / float64(saving)), nil
}
