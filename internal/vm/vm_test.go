// Package vm_test checks the VM configuration checks of package server
// through its exported API.
package vm_test

import (
	"testing"

	"ealb/internal/server"
	"ealb/internal/units"
)

// testVMConfig returns a representative small-instance VM: 2 GiB RAM,
// dirtying 50 MiB/s under load.
func testVMConfig() server.VMConfig {
	return server.VMConfig{Memory: 2 * units.GB, CPUShare: 0.25, DirtyRate: 50 * units.MB}
}

func TestNewValidation(t *testing.T) {
	cases := []server.VMConfig{
		{Memory: 0, CPUShare: 0.5},
		{Memory: -1, CPUShare: 0.5},
		{Memory: units.GB, CPUShare: 1.5},
		{Memory: units.GB, CPUShare: -0.5},
		{Memory: units.GB, CPUShare: 0.5, DirtyRate: -5},
	}
	for i, cfg := range cases {
		if _, err := server.NewVM(1, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := server.NewVM(1, testVMConfig()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestInitMatchesNew: InitVM must fully overwrite a recycled value.
func TestInitMatchesNew(t *testing.T) {
	fresh, err := server.NewVM(3, testVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	dirty := server.VM{ID: 99, CPUShare: 0.9}
	if err := server.InitVM(&dirty, 3, testVMConfig()); err != nil {
		t.Fatal(err)
	}
	if dirty != *fresh {
		t.Errorf("InitVM left residue: %+v vs %+v", dirty, *fresh)
	}
	if err := server.InitVM(&dirty, 3, server.VMConfig{}); err == nil {
		t.Error("InitVM accepted a zero config")
	}
}
