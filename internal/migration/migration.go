// Package migration models the cost of moving a VM between servers — the
// part of the paper's question list (§3, questions 3-8) it evaluates:
// how much time and energy a migration takes.
//
// Live migration follows the standard pre-copy algorithm (Clark et al.,
// NSDI'05), which is what production hypervisors the paper's ecosystem
// runs (Xen, KVM, VMware) implement: transfer all memory while the VM
// keeps running, then iteratively re-transfer the pages dirtied during the
// previous round, and finally stop the VM for a brief stop-and-copy of the
// residual dirty set. The model exposes per-round volumes so tests can
// verify the geometric-series behaviour, and an energy account charging
// source CPU overhead, target CPU overhead, and per-byte network cost.
package migration

import (
	"fmt"

	"ealb/internal/units"
	"ealb/internal/vm"
)

// Params configures the migration cost model.
type Params struct {
	// Bandwidth is the migration link's usable bandwidth, bytes/second.
	Bandwidth units.Bytes
	// StopThreshold is the dirty-set size below which the hypervisor stops
	// the VM and performs the final copy.
	StopThreshold units.Bytes
	// MaxRounds caps pre-copy iterations when the dirty rate approaches or
	// exceeds the bandwidth and the series will not converge.
	MaxRounds int
	// SwitchLatency is the fixed time to pause, transfer control state and
	// resume on the target, added to the downtime.
	SwitchLatency units.Seconds
	// SourceOverhead and TargetOverhead are the extra power drawn on each
	// endpoint while migration is in progress.
	SourceOverhead units.Watts
	TargetOverhead units.Watts
	// NetEnergyPerByte charges the network path per byte moved.
	NetEnergyPerByte units.Joules
}

// DefaultParams returns a representative model: a 1 Gb/s migration link
// (125 MB/s usable), 64 MiB stop threshold, 30-round cap, 30 W endpoint
// overheads and ~5 nJ/byte for the switch fabric.
func DefaultParams() Params {
	return Params{
		Bandwidth:        125 * units.MB,
		StopThreshold:    64 * units.MB,
		MaxRounds:        30,
		SwitchLatency:    0.1,
		SourceOverhead:   30,
		TargetOverhead:   30,
		NetEnergyPerByte: 5e-9,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Bandwidth <= 0 {
		return fmt.Errorf("migration: non-positive bandwidth %v", p.Bandwidth)
	}
	if p.StopThreshold <= 0 {
		return fmt.Errorf("migration: non-positive stop threshold %v", p.StopThreshold)
	}
	if p.MaxRounds < 1 {
		return fmt.Errorf("migration: MaxRounds %d < 1", p.MaxRounds)
	}
	if p.SwitchLatency < 0 {
		return fmt.Errorf("migration: negative switch latency %v", p.SwitchLatency)
	}
	if p.SourceOverhead < 0 || p.TargetOverhead < 0 || p.NetEnergyPerByte < 0 {
		return fmt.Errorf("migration: negative energy parameter")
	}
	return nil
}

// Result describes one migration's cost.
type Result struct {
	Rounds      int           // pre-copy rounds before the stop-and-copy
	Bytes       units.Bytes   // total bytes moved, including the final copy
	RoundBytes  []units.Bytes // per-round volumes (diagnostics/tests)
	Total       units.Seconds // wall-clock time, start to resume
	Downtime    units.Seconds // VM pause duration
	Energy      units.Joules  // endpoint overheads + network transfer
	Converged   bool          // false when the round cap forced the stop
	LiveFration float64       // fraction of Total during which the VM ran
}

// Live computes the cost of pre-copy live migration of v under params p.
func Live(v *vm.VM, p Params) (Result, error) {
	if err := check(v, p); err != nil {
		return Result{}, err
	}
	return live(v, p, true), nil
}

// LiveCost computes exactly the same result as Live without recording the
// per-round volumes (Result.RoundBytes stays nil) — the allocation-free
// variant for the simulation hot path, which prices thousands of
// migrations per reallocation interval and never reads the round trace.
// It does not check its inputs: p must have passed Validate (the server
// and cluster configurations validate it once) and v must be non-nil.
func LiveCost(v *vm.VM, p Params) Result {
	return live(v, p, false)
}

// check rejects the inputs Live and Cold cannot price.
func check(v *vm.VM, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("migration: nil VM")
	}
	return nil
}

func live(v *vm.VM, p Params, recordRounds bool) Result {
	var res Result
	bw := float64(p.Bandwidth)
	dirtyRate := float64(v.DirtyRate)

	// Round 0 ships the full resident set.
	volume := float64(v.Memory)
	var liveTime float64
	for {
		t := volume / bw
		liveTime += t
		res.Bytes += units.Bytes(volume)
		if recordRounds {
			res.RoundBytes = append(res.RoundBytes, units.Bytes(volume))
		}
		res.Rounds++

		// Pages dirtied while this round was copying form the next round.
		volume = dirtyRate * t
		if volume <= float64(p.StopThreshold) {
			res.Converged = true
			break
		}
		if res.Rounds >= p.MaxRounds {
			// Non-convergent (dirty rate ~ bandwidth): force stop-and-copy
			// of whatever remains.
			res.Converged = false
			break
		}
	}

	// Stop-and-copy of the residual dirty set.
	final := volume
	res.Downtime = units.Seconds(final/bw) + p.SwitchLatency
	res.Bytes += units.Bytes(final)
	res.Total = units.Seconds(liveTime) + res.Downtime
	if res.Total > 0 {
		res.LiveFration = float64(units.Seconds(liveTime)) / float64(res.Total)
	}

	res.Energy = units.Energy(p.SourceOverhead, res.Total) +
		units.Energy(p.TargetOverhead, res.Total) +
		units.Joules(float64(res.Bytes)*float64(p.NetEnergyPerByte))
	return res
}

// Cold computes the cost of stop-and-copy (cold) migration: the VM is
// paused for the entire memory transfer. Used as the baseline against
// which live migration's downtime advantage shows.
func Cold(v *vm.VM, p Params) (Result, error) {
	if err := check(v, p); err != nil {
		return Result{}, err
	}
	t := units.TransferTime(v.Memory, p.Bandwidth) + p.SwitchLatency
	res := Result{
		Rounds:     0,
		Bytes:      v.Memory,
		Total:      t,
		Downtime:   t,
		Converged:  true,
		RoundBytes: nil,
	}
	res.Energy = units.Energy(p.SourceOverhead, res.Total) +
		units.Energy(p.TargetOverhead, res.Total) +
		units.Joules(float64(res.Bytes)*float64(p.NetEnergyPerByte))
	return res, nil
}
