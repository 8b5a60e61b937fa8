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
	return Config{
		ID:                 id,
		Boundaries:         b,
		Power:              pm,
		Migration:          DefaultMigrationParams(),
		ControlMsgEnergy:   1,
		VerticalCostEnergy: 0.5,
	}
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
	s, err := New(resetConfig(t, 1, 200))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Place(hostedPair(t, 1, 0.4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AccountTo(120); err != nil {
		t.Fatal(err)
	}
	if s.Energy() == 0 {
		t.Fatal("expected energy after accounting")
	}

	cfg2 := resetConfig(t, 7, 300)
	if err := s.Reset(cfg2); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != fresh.ID() || s.NumApps() != 0 || s.Energy() != 0 ||
		s.CState() != fresh.CState() || s.Load() != fresh.Load() ||
		s.Boundaries() != fresh.Boundaries() {
		t.Errorf("reset server differs from fresh: %+v vs %+v", s, fresh)
	}
	// The accounting clock must restart at zero.
	if _, err := s.AccountTo(0); err != nil {
		t.Errorf("accounting clock not reset: %v", err)
	}
	// Reset must reject the same invalid configs New rejects.
	bad := cfg2
	bad.Power = nil
	if err := s.Reset(bad); err == nil {
		t.Error("Reset accepted a nil power model")
	}
}

// TestResetRevertsCustomSleepSpecs: a server built with a custom spec
// table must come back on the default table when Reset's config selects
// it — reusing the old manager would leak the custom wake latencies.
func TestResetRevertsCustomSleepSpecs(t *testing.T) {
	specs := DefaultSpecs()
	fast := specs[C6]
	fast.wakeLatency = 1
	specs[C6] = fast

	cfg := resetConfig(t, 1, 200)
	cfg.SleepSpecs = specs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	if lat, err := s.WakeLatency(); err != nil || lat != 1 {
		t.Fatalf("custom wake latency = %v, %v; want 1", lat, err)
	}

	if err := s.Reset(resetConfig(t, 1, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	want := DefaultSpecs()[C6].wakeLatency
	if lat, err := s.WakeLatency(); err != nil || lat != want {
		t.Errorf("wake latency after default-spec Reset = %v, %v; want %v (custom table leaked)", lat, err, want)
	}
}

// TestAppendHostedReusesBuffer: AppendHosted into a reused buffer must
// equal Hosted and not allocate once the buffer is warm.
func TestAppendHostedReusesBuffer(t *testing.T) {
	s, err := New(resetConfig(t, 1, 200))
	if err != nil {
		t.Fatal(err)
	}
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
