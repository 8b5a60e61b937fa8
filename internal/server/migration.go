package server

import (
	"fmt"
	"math"

	"ealb/internal/units"
)

// The cost of moving a VM between servers — the part of the paper's
// question list (§3, questions 3-8) the simulator evaluates: how much
// time and energy a migration takes.
//
// Live migration follows the standard pre-copy algorithm (Clark et al.,
// NSDI'05), which is what production hypervisors the paper's ecosystem
// runs (Xen, KVM, VMware) implement: transfer all memory while the VM
// keeps running, then iteratively re-transfer the pages dirtied during the
// previous round, and finally stop the VM for a brief stop-and-copy of the
// residual dirty set. The model exposes per-round volumes so tests can
// verify the geometric-series behaviour, and an energy account charging
// source CPU overhead, target CPU overhead, and per-byte network cost.

// MigrationParams configures the migration cost model.
type MigrationParams struct {
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

// DefaultMigrationParams returns a representative model: a 1 Gb/s
// migration link (125 MB/s usable), 64 MiB stop threshold, 30-round cap,
// 30 W endpoint overheads and ~5 nJ/byte for the switch fabric.
func DefaultMigrationParams() MigrationParams {
	return MigrationParams{
		Bandwidth:        125 * units.MB,
		StopThreshold:    64 * units.MB,
		MaxRounds:        30,
		SwitchLatency:    0.1,
		SourceOverhead:   30,
		TargetOverhead:   30,
		NetEnergyPerByte: 5e-9,
	}
}

// Validate checks the parameters. Every float check is written so that
// NaN fails it, and an infinite value fails it too.
func (p MigrationParams) Validate() error {
	if p.Bandwidth <= 0 {
		return fmt.Errorf("migration: non-positive bandwidth %v", p.Bandwidth)
	}
	if p.StopThreshold <= 0 {
		return fmt.Errorf("migration: non-positive stop threshold %v", p.StopThreshold)
	}
	if p.MaxRounds < 1 {
		return fmt.Errorf("migration: MaxRounds %d < 1", p.MaxRounds)
	}
	if !finiteNonNegative(float64(p.SwitchLatency)) {
		return fmt.Errorf("migration: negative switch latency %v", p.SwitchLatency)
	}
	if !finiteNonNegative(float64(p.SourceOverhead)) || !finiteNonNegative(float64(p.TargetOverhead)) ||
		!finiteNonNegative(float64(p.NetEnergyPerByte)) {
		return fmt.Errorf("migration: negative energy parameter")
	}
	return nil
}

// MigrationResult describes one migration's cost.
type MigrationResult struct {
	Rounds       int           // pre-copy rounds before the stop-and-copy
	Bytes        units.Bytes   // total bytes moved, including the final copy
	Total        units.Seconds // wall-clock time, start to resume
	Downtime     units.Seconds // VM pause duration
	Energy       units.Joules  // endpoint overheads + network transfer
	Converged    bool          // false when the round cap forced the stop
	roundBytes   []units.Bytes // per-round volumes (LiveMigration only)
	liveFraction float64       // fraction of Total the VM ran (LiveMigration only)
}

// LiveMigration computes the cost of pre-copy live migration of v under
// params p.
func LiveMigration(v *VM, p MigrationParams) (MigrationResult, error) {
	if err := checkMigration(v, p); err != nil {
		return MigrationResult{}, err
	}
	return liveMigration(v, p, true), nil
}

// LiveMigrationCost computes exactly the same result as LiveMigration
// without the diagnostics (roundBytes stays nil, liveFraction zero) — the
// allocation-free variant for the simulation hot path, which prices
// thousands of migrations per reallocation interval and never reads the
// round trace.
// It does not check its inputs: p must pass Validate (the cluster prices
// every move with DefaultMigrationParams) and v must be non-nil.
func LiveMigrationCost(v *VM, p MigrationParams) MigrationResult {
	return liveMigration(v, p, false)
}

// checkMigration rejects the inputs LiveMigration and ColdMigration
// cannot price.
func checkMigration(v *VM, p MigrationParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if v == nil {
		return fmt.Errorf("migration: nil VM")
	}
	return nil
}

// liveMigration prices the pre-copy rounds; record adds the diagnostics
// (per-round volumes and the live fraction) that only LiveMigration's
// callers read.
func liveMigration(v *VM, p MigrationParams, record bool) MigrationResult {
	var res MigrationResult
	bw := float64(p.Bandwidth)
	dirtyRate := float64(v.DirtyRate)

	// Round 0 ships the full resident set.
	volume := float64(v.Memory)
	var liveTime float64
	for {
		t := volume / bw
		liveTime += t
		res.Bytes += units.Bytes(volume)
		if record {
			res.roundBytes = append(res.roundBytes, units.Bytes(volume))
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
	if record && res.Total > 0 {
		res.liveFraction = float64(units.Seconds(liveTime)) / float64(res.Total)
	}

	res.Energy = units.Energy(p.SourceOverhead, res.Total) +
		units.Energy(p.TargetOverhead, res.Total) +
		units.Joules(float64(res.Bytes)*float64(p.NetEnergyPerByte))
	return res
}

// ColdMigration computes the cost of stop-and-copy (cold) migration: the VM is
// paused for the entire memory transfer. Used as the baseline against
// which live migration's downtime advantage shows.
func ColdMigration(v *VM, p MigrationParams) (MigrationResult, error) {
	if err := checkMigration(v, p); err != nil {
		return MigrationResult{}, err
	}
	t := units.TransferTime(v.Memory, p.Bandwidth) + p.SwitchLatency
	res := MigrationResult{
		Rounds:     0,
		Bytes:      v.Memory,
		Total:      t,
		Downtime:   t,
		Converged:  true,
		roundBytes: nil,
	}
	res.Energy = units.Energy(p.SourceOverhead, res.Total) +
		units.Energy(p.TargetOverhead, res.Total) +
		units.Joules(float64(res.Bytes)*float64(p.NetEnergyPerByte))
	return res, nil
}

// finiteNonNegative reports whether x is a finite number ≥ 0; NaN and
// +Inf fail it.
func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
