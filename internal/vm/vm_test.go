package vm

import (
	"testing"

	"ealb/internal/units"
)

func newRunning(t *testing.T) *VM {
	t.Helper()
	v, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SetState(Running); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Memory: 0, ImageSize: 1, CPUShare: 0.5},
		{Memory: -1, ImageSize: 1, CPUShare: 0.5},
		{Memory: units.GB, ImageSize: -1, CPUShare: 0.5},
		{Memory: units.GB, ImageSize: 1, CPUShare: 1.5},
		{Memory: units.GB, ImageSize: 1, CPUShare: -0.5},
		{Memory: units.GB, ImageSize: 1, CPUShare: 0.5, DirtyRate: -5},
	}
	for i, cfg := range cases {
		if _, err := New(1, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(1, DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	v, _ := New(1, DefaultConfig())
	if v.State() != Provisioning {
		t.Fatal("new VM must be provisioning")
	}
	steps := []State{Running, Migrating, Running, Stopped}
	for _, s := range steps {
		if err := v.SetState(s); err != nil {
			t.Fatalf("transition to %v: %v", s, err)
		}
		if v.State() != s {
			t.Fatalf("state = %v, want %v", v.State(), s)
		}
	}
}

func TestIllegalTransitions(t *testing.T) {
	v, _ := New(1, DefaultConfig())
	if err := v.SetState(Migrating); err == nil {
		t.Error("provisioning -> migrating must fail")
	}
	_ = v.SetState(Running)
	_ = v.SetState(Stopped)
	for _, s := range []State{Running, Migrating, Provisioning} {
		if err := v.SetState(s); err == nil {
			t.Errorf("stopped -> %v must fail", s)
		}
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		Provisioning: "provisioning",
		Running:      "running",
		Migrating:    "migrating",
		Stopped:      "stopped",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
	if State(9).String() != "State(9)" {
		t.Error("unknown state must render with value")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Memory != 2*units.GB || cfg.ImageSize != 4*units.GB {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if !cfg.CPUShare.Valid() || cfg.DirtyRate <= 0 {
		t.Errorf("defaults not sane: %+v", cfg)
	}
}
