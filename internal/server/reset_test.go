package server

import (
	"sort"
	"testing"

	"ealb/internal/units"
)

func resetConfig(t *testing.T, id ID, peak units.Watts) Config {
	t.Helper()
	pm, err := NewLinearPower(peak/2, peak)
	if err != nil {
		t.Fatal(err)
	}
	b := Boundaries{SoptLow: 0.2, OptLow: 0.3, OptHigh: 0.7, SoptHigh: 0.85}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return Config{ID: id, Boundaries: b, Power: pm}
}

func hostedPair(t *testing.T, appID AppID, demand units.Fraction) Hosted {
	t.Helper()
	a, err := newApp(appID, demand, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVM(VMID(appID), testVMConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Hosted{App: a, VM: v}
}

// TestResetMatchesNew: a recycled server must be indistinguishable from a
// freshly constructed one — empty, in C0, zero energy, new identity.
func TestResetMatchesNew(t *testing.T) {
	s := build(t, resetConfig(t, 1, 200))
	if err := s.Place(hostedPair(t, 1, 0.4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AccountTo(120); err != nil {
		t.Fatal(err)
	}
	if s.Energy() == 0 {
		t.Fatal("expected energy after accounting")
	}
	if s.QCost(DefaultMigrationParams(), 1) == 1 {
		t.Fatal("expected a priced VM")
	}

	cfg2 := resetConfig(t, 7, 300)
	if err := s.Reset(cfg2); err != nil {
		t.Fatal(err)
	}
	fresh := build(t, cfg2)
	if s.ID() != fresh.ID() || s.NumApps() != 0 || s.Energy() != 0 ||
		s.CState() != fresh.CState() || s.Load() != fresh.Load() ||
		s.Boundaries() != fresh.Boundaries() || s.PowerModel() != fresh.PowerModel() ||
		s.qVM != nil || s.QCost(DefaultMigrationParams(), 1) != 1 {
		t.Errorf("reset server differs from fresh: %+v vs %+v", s, fresh)
	}
	// The accounting clock must restart at zero.
	if _, err := s.AccountTo(0); err != nil {
		t.Errorf("accounting clock not reset: %v", err)
	}
	// Reset must reject the same invalid configs New rejects.
	bad := cfg2
	bad.Power = LinearPower{}
	if err := s.Reset(bad); err == nil {
		t.Error("Reset accepted a zero power model")
	}
}

// TestAppendHostedReusesBuffer: AppendHosted into a reused buffer must
// equal Hosted and not allocate once the buffer is warm.
func TestAppendHostedReusesBuffer(t *testing.T) {
	s := build(t, resetConfig(t, 1, 200))
	for i := 1; i <= 4; i++ {
		if err := s.Place(hostedPair(t, AppID(i), units.Fraction(float64(i)*0.05)), 0); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]Hosted, 0, 8)
	got := s.AppendHosted(buf[:0])
	want := s.Hosted()
	if len(got) != len(want) {
		t.Fatalf("AppendHosted returned %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].App.ID != want[i].App.ID {
			t.Errorf("pair %d: got app %d, want %d", i, got[i].App.ID, want[i].App.ID)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = s.AppendHosted(buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendHosted into warm buffer allocated %.1f times per run", allocs)
	}
}

// TestSortByDemandMatchesStableSort: the hand-rolled insertion sort must
// produce exactly the permutation of sort.SliceStable — stable-sort
// output is unique, and the protocol's RNG stream depends on it.
func TestSortByDemandMatchesStableSort(t *testing.T) {
	demands := []float64{0.3, 0.1, 0.3, 0.5, 0.1, 0.3, 0.2, 0.5, 0.05}
	var a, b []Hosted
	for i, d := range demands {
		h := hostedPair(t, AppID(i+1), units.Fraction(d))
		a = append(a, h)
		b = append(b, h)
	}
	SortByDemand(a)
	sort.SliceStable(b, func(i, j int) bool { return b[i].App.Demand > b[j].App.Demand })
	for i := range a {
		if a[i].App.ID != b[i].App.ID {
			t.Fatalf("position %d: insertion sort gave app %d, stable sort %d", i, a[i].App.ID, b[i].App.ID)
		}
	}
}
