package server

import (
	"math"
	"testing"

	"ealb/internal/units"
)

// testVMConfig returns a representative small-instance VM: 2 GiB RAM,
// dirtying 50 MiB/s under load.
func testVMConfig() VMConfig {
	return VMConfig{Memory: 2 * units.GB, CPUShare: 0.25, DirtyRate: 50 * units.MB}
}

func testVM(t *testing.T, mem units.Bytes, dirty units.Bytes) *VM {
	t.Helper()
	v, err := NewVM(1, VMConfig{
		Memory:    mem,
		CPUShare:  0.25,
		DirtyRate: dirty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestLiveRoundsShrinkGeometrically(t *testing.T) {
	// dirty/bandwidth = 0.4, so round volumes shrink by 0.4 each round.
	v := testVM(t, 2*units.GB, 50*units.MB)
	p := DefaultMigrationParams()
	p.StopThreshold = units.MB
	res, err := LiveMigration(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 3 {
		t.Fatalf("expected several rounds, got %d", res.Rounds)
	}
	for i := 1; i < len(res.roundBytes); i++ {
		ratio := float64(res.roundBytes[i]) / float64(res.roundBytes[i-1])
		if math.Abs(ratio-0.4) > 0.01 {
			t.Errorf("round %d volume ratio = %v, want 0.4", i, ratio)
		}
	}
	if !res.Converged {
		t.Error("r=0.4 must converge")
	}
}

func TestLiveFraction(t *testing.T) {
	v := testVM(t, 2*units.GB, 40*units.MB)
	res, err := LiveMigration(v, DefaultMigrationParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.liveFraction <= 0.5 || res.liveFraction > 1 {
		t.Errorf("live fraction = %v, want dominated by live phase", res.liveFraction)
	}
}

// BenchmarkMigrationModel measures one pre-copy live-migration cost
// computation (the protocol's per-decision pricing primitive).
func BenchmarkMigrationModel(b *testing.B) {
	v, err := NewVM(1, testVMConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultMigrationParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LiveMigration(v, p); err != nil {
			b.Fatal(err)
		}
	}
}
