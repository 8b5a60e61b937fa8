package experiments

import (
	"math"
	"testing"

	"ealb/internal/server"
	"ealb/internal/units"
)

func mustDVFS(t *testing.T) *dvfsModel {
	t.Helper()
	base, err := server.NewLinearPower(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDVFS(base, defaultPStates())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDVFSValidation(t *testing.T) {
	base, _ := server.NewLinearPower(100, 200)
	if _, err := newDVFS(nil, defaultPStates()); err == nil {
		t.Error("nil base must fail")
	}
	if _, err := newDVFS(base, nil); err == nil {
		t.Error("empty ladder must fail")
	}
	if _, err := newDVFS(base, []pState{{name: "bad", freq: 1.2, volt: 1}}); err == nil {
		t.Error("freq > 1 must fail")
	}
	if _, err := newDVFS(base, []pState{{name: "bad", freq: 0.5, volt: 0}}); err == nil {
		t.Error("zero volt must fail")
	}
}

func TestDVFSStatesSortedNominalFirst(t *testing.T) {
	base, _ := server.NewLinearPower(100, 200)
	d, err := newDVFS(base, []pState{
		{name: "slow", freq: 0.6, volt: 0.8},
		{name: "fast", freq: 1.0, volt: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.state().name != "fast" {
		t.Errorf("initial state = %v, want nominal", d.state().name)
	}
}

func TestDVFSNominalMatchesBase(t *testing.T) {
	d := mustDVFS(t)
	for _, u := range []units.Fraction{0, 0.3, 0.7, 1} {
		if got, want := d.Power(u), d.base.Power(u); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("nominal P-state Power(%v) = %v, want base %v", u, got, want)
		}
	}
}

func TestDVFSLowerStateSavesPower(t *testing.T) {
	d := mustDVFS(t)
	nominal := d.Power(0.5)
	if err := d.setState(4); err != nil { // P4: 0.6 freq, 0.8 volt
		t.Fatal(err)
	}
	scaled := d.Power(0.5)
	if scaled >= nominal {
		t.Errorf("P4 draw %v not below nominal %v at same demand", scaled, nominal)
	}
	if d.capacity() != 0.6 {
		t.Errorf("P4 capacity = %v, want 0.6", d.capacity())
	}
}

func TestDVFSSaturatesAtScaledCapacity(t *testing.T) {
	d := mustDVFS(t)
	if err := d.setState(4); err != nil {
		t.Fatal(err)
	}
	// Demand above the 0.6 capacity saturates: same power as at capacity.
	if d.Power(0.9) != d.Power(0.6) {
		t.Error("demand beyond scaled capacity must saturate")
	}
}

func TestDVFSSetStateErrors(t *testing.T) {
	d := mustDVFS(t)
	if err := d.setState(-1); err == nil {
		t.Error("negative index must error")
	}
	if err := d.setState(99); err == nil {
		t.Error("out-of-range index must error")
	}
}

func TestBestStateFor(t *testing.T) {
	d := mustDVFS(t)
	tests := []struct {
		u    units.Fraction
		want string
	}{
		{0.95, "P0"},
		{0.85, "P1"},
		{0.61, "P3"},
		{0.10, "P4"},
	}
	for _, tt := range tests {
		i := d.bestStateFor(tt.u)
		if d.states[i].name != tt.want {
			t.Errorf("BestStateFor(%v) = %v, want %v", tt.u, d.states[i].name, tt.want)
		}
		// QoS invariant: chosen state always covers the demand.
		if d.states[i].freq < tt.u {
			t.Errorf("chosen state capacity %v below demand %v", d.states[i].freq, tt.u)
		}
	}
}

func TestDVFSIdlePeakDelegate(t *testing.T) {
	d := mustDVFS(t)
	if d.Idle() != 100 || d.Peak() != 200 {
		t.Error("Idle/Peak must delegate to base model")
	}
}
