package server

import (
	"fmt"

	"ealb/internal/units"
)

// VMID uniquely identifies a VM within a simulation.
type VMID int64

// VM is one virtual machine instance: the unit the cluster protocol
// migrates. It bundles the resources that matter to the paper's cost
// questions (§3, questions 5-8): the CPU share it consumes on its host
// (normalized), the memory footprint that determines migration volume,
// and the rate at which its pages are dirtied while running — the
// quantity that governs how many pre-copy rounds a live migration needs.
type VM struct {
	ID        VMID
	Memory    units.Bytes    // resident memory to transfer during migration
	CPUShare  units.Fraction // normalized CPU demand on its host
	DirtyRate units.Bytes    // bytes of memory dirtied per second while running
}

// VMConfig carries the parameters for creating a VM.
type VMConfig struct {
	Memory    units.Bytes
	CPUShare  units.Fraction
	DirtyRate units.Bytes
}

// NewVM creates a VM.
func NewVM(id VMID, cfg VMConfig) (*VM, error) {
	v := new(VM)
	if err := InitVM(v, id, cfg); err != nil {
		return nil, err
	}
	return v, nil
}

// InitVM validates and initializes a (possibly recycled) VM value in
// place — the arena-friendly variant of NewVM. Every field is
// overwritten; the initialized value is identical to one returned by
// NewVM.
func InitVM(v *VM, id VMID, cfg VMConfig) error {
	if cfg.Memory <= 0 {
		return fmt.Errorf("vm: non-positive memory %v", cfg.Memory)
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
		CPUShare:  cfg.CPUShare,
		DirtyRate: cfg.DirtyRate,
	}
	return nil
}
