// Package vm models the virtual machines the cluster protocol migrates.
//
// A VM bundles the resources that matter to the paper's cost questions
// (§3, questions 5-8): the CPU share it consumes on its host (normalized),
// the memory footprint and image size that determine migration volume, and
// the rate at which its pages are dirtied while running — the quantity
// that governs how many pre-copy rounds a live migration needs.
package vm

import (
	"fmt"

	"ealb/internal/units"
)

// ID uniquely identifies a VM within a simulation.
type ID int64

// State is the lifecycle state of a VM.
type State int

// VM lifecycle states.
const (
	Provisioning State = iota // image being deployed, not yet running
	Running                   // executing on a host
	Migrating                 // live migration in progress
	Stopped                   // shut down
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Provisioning:
		return "provisioning"
	case Running:
		return "running"
	case Migrating:
		return "migrating"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// VM is one virtual machine instance.
type VM struct {
	ID        ID
	Memory    units.Bytes    // resident memory to transfer during migration
	ImageSize units.Bytes    // disk image shipped when cloning (horizontal scaling)
	CPUShare  units.Fraction // normalized CPU demand on its host
	DirtyRate units.Bytes    // bytes of memory dirtied per second while running

	state State
}

// Config carries the parameters for creating a VM.
type Config struct {
	Memory    units.Bytes
	ImageSize units.Bytes
	CPUShare  units.Fraction
	DirtyRate units.Bytes
}

// DefaultConfig returns a representative small-instance VM: 2 GiB RAM,
// 4 GiB image, dirtying 50 MiB/s under load.
func DefaultConfig() Config {
	return Config{
		Memory:    2 * units.GB,
		ImageSize: 4 * units.GB,
		CPUShare:  0.25,
		DirtyRate: 50 * units.MB,
	}
}

// New creates a VM in the Provisioning state.
func New(id ID, cfg Config) (*VM, error) {
	v := new(VM)
	if err := Init(v, id, cfg); err != nil {
		return nil, err
	}
	return v, nil
}

// Init validates and initializes a (possibly recycled) VM value in place
// in the Provisioning state — the arena-friendly variant of New. Every
// field is overwritten; the initialized value is identical to one
// returned by New.
func Init(v *VM, id ID, cfg Config) error {
	if cfg.Memory <= 0 {
		return fmt.Errorf("vm: non-positive memory %v", cfg.Memory)
	}
	if cfg.ImageSize < 0 {
		return fmt.Errorf("vm: negative image size %v", cfg.ImageSize)
	}
	if !cfg.CPUShare.Valid() {
		return fmt.Errorf("vm: CPU share %v outside [0,1]", cfg.CPUShare)
	}
	if cfg.DirtyRate < 0 {
		return fmt.Errorf("vm: negative dirty rate %v", cfg.DirtyRate)
	}
	*v = VM{
		ID:        id,
		Memory:    cfg.Memory,
		ImageSize: cfg.ImageSize,
		CPUShare:  cfg.CPUShare,
		DirtyRate: cfg.DirtyRate,
		state:     Provisioning,
	}
	return nil
}

// State returns the current lifecycle state.
func (v *VM) State() State { return v.state }

// transitions lists the legal lifecycle moves.
var transitions = map[State][]State{
	Provisioning: {Running, Stopped},
	Running:      {Migrating, Stopped},
	Migrating:    {Running, Stopped},
	Stopped:      nil,
}

// SetState performs a lifecycle transition, rejecting illegal moves (for
// example resurrecting a stopped VM or migrating one that is not running).
func (v *VM) SetState(to State) error {
	for _, legal := range transitions[v.state] {
		if to == legal {
			v.state = to
			return nil
		}
	}
	return fmt.Errorf("vm %d: illegal transition %v -> %v", v.ID, v.state, to)
}
