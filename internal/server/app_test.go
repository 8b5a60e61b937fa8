package server

import (
	"math"
	"testing"

	"ealb/internal/units"
	"ealb/internal/xrand"
)

// newApp builds an application without a generator.
func newApp(id AppID, demand, lambda units.Fraction) (*App, error) {
	a := new(App)
	return a, initApp(a, id, demand, lambda)
}

func TestInitAppValidation(t *testing.T) {
	if _, err := newApp(1, 0.3, 0.05); err != nil {
		t.Fatalf("valid app rejected: %v", err)
	}
	cases := []struct{ demand, lambda units.Fraction }{
		{-0.1, 0.05},
		{1.5, 0.05},
		{0.3, 0},
		{0.3, -0.1},
		{0.3, 1.5},
	}
	for i, c := range cases {
		if _, err := newApp(1, c.demand, c.lambda); err == nil {
			t.Errorf("case %d: invalid app accepted (demand=%v lambda=%v)", i, c.demand, c.lambda)
		}
	}
}

func TestEvolveBoundedByLambda(t *testing.T) {
	rng := xrand.New(1)
	a, _ := newApp(1, 0.5, 0.05)
	for i := 0; i < 10000; i++ {
		before := a.Demand
		delta := a.Evolve(rng)
		if a.Demand < minDemand || a.Demand > 1 {
			t.Fatalf("demand %v escaped [min,1]", a.Demand)
		}
		// The increase bound is the paper's λ constraint; decreases can
		// exceed it only through the MinDemand floor (they cannot here).
		if delta > a.lambda+1e-12 {
			t.Fatalf("demand rose by %v > lambda %v", delta, a.lambda)
		}
		if got := a.Demand - before; math.Abs(float64(got-delta)) > 1e-12 {
			t.Fatalf("reported delta %v != actual %v", delta, got)
		}
	}
}

func TestEvolveMeanRevertsToBase(t *testing.T) {
	rng := xrand.New(21)
	a, _ := newApp(1, 0.3, 0.03)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		a.Evolve(rng)
		sum += float64(a.Demand)
	}
	if mean := sum / n; math.Abs(mean-0.3) > 0.05 {
		t.Errorf("long-run mean demand = %v, want ~base 0.3", mean)
	}
}

func TestAppReset(t *testing.T) {
	a, _ := newApp(1, 0.3, 0.05)
	a.Provision(0.15)
	if err := a.Reset(0.1); err != nil {
		t.Fatal(err)
	}
	if a.Demand != 0.1 || a.base != 0.1 || a.reserved != 0.1 {
		t.Errorf("reset left app at %+v", a)
	}
	if err := a.Reset(0.001); err == nil {
		t.Error("reset below MinDemand must error")
	}
	if err := a.Reset(1.5); err == nil {
		t.Error("reset above 1 must error")
	}
}

func TestEvolveClampsAtOne(t *testing.T) {
	rng := xrand.New(3)
	a, _ := newApp(1, 0.99, 0.05)
	a.base = 1 // reversion pulls upward, so steps keep pushing past 1
	for i := 0; i < 100; i++ {
		a.Evolve(rng)
		if a.Demand > 1 {
			t.Fatalf("demand exceeded 1: %v", a.Demand)
		}
	}
}

func TestEvolveFloorsAtMinDemand(t *testing.T) {
	rng := xrand.New(4)
	a, _ := newApp(1, 0.02, 0.05)
	a.base = 0 // reversion pulls downward, so steps keep pushing below the floor
	for i := 0; i < 100; i++ {
		a.Evolve(rng)
		if a.Demand < minDemand {
			t.Fatalf("demand fell below floor: %v", a.Demand)
		}
	}
}

func TestGeneratorUniqueIDsAndLambdas(t *testing.T) {
	g, err := NewAppGenerator(xrand.New(6), 0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	seenID := map[AppID]bool{}
	seenL := map[units.Fraction]bool{}
	for i := 0; i < 1000; i++ {
		a, err := g.Next(0.3)
		if err != nil {
			t.Fatal(err)
		}
		if seenID[a.ID] {
			t.Fatalf("duplicate ID %d", a.ID)
		}
		seenID[a.ID] = true
		if a.lambda < 0.01 || a.lambda >= 0.1 {
			t.Fatalf("lambda %v outside range", a.lambda)
		}
		seenL[a.lambda] = true
	}
	// "Each application has a unique λ" (§4): continuous draws collide
	// with negligible probability.
	if len(seenL) < 990 {
		t.Errorf("only %d distinct lambdas in 1000 draws", len(seenL))
	}
}

func TestProvision(t *testing.T) {
	a, _ := newApp(1, 0.3, 0.05)
	if a.reserved != 0.3 {
		t.Errorf("new app reservation = %v, want demand 0.3", a.reserved)
	}
	a.Provision(0.15)
	if math.Abs(float64(a.reserved)-0.45) > 1e-12 {
		t.Errorf("Reserved = %v, want 0.45", a.reserved)
	}
	a.Provision(-1)
	if a.reserved != a.Demand {
		t.Errorf("negative slack must reserve exactly demand, got %v", a.reserved)
	}
	b, _ := newApp(2, 0.95, 0.05)
	b.Provision(0.2)
	if b.reserved != 1 {
		t.Errorf("reservation must clamp at 1, got %v", b.reserved)
	}
}

func TestNeedsVerticalScale(t *testing.T) {
	a, _ := newApp(1, 0.3, 0.05)
	a.Provision(0.1)
	if a.NeedsVerticalScale() {
		t.Error("demand under reservation must not need scaling")
	}
	a.Demand = 0.45
	if !a.NeedsVerticalScale() {
		t.Error("demand above reservation must need scaling")
	}
}

func TestVerticalScale(t *testing.T) {
	a, _ := newApp(1, 0.3, 0.05)
	a.Provision(0) // reserved = 0.3
	a.Demand = 0.37
	grew := a.VerticalScale(0.05)
	// Rounds up to the next 0.05 multiple above the old reservation.
	if math.Abs(float64(grew)-0.10) > 1e-9 {
		t.Errorf("reservation grew by %v, want 0.10", grew)
	}
	if a.reserved < a.Demand {
		t.Error("reservation must cover demand after scaling")
	}
	if a.VerticalScale(0.05) != 0 {
		t.Error("scaling with sufficient reservation must be a no-op")
	}
	// Zero quantum falls back to the default.
	b, _ := newApp(2, 0.3, 0.05)
	b.Demand = 0.32
	if b.VerticalScale(0) <= 0 {
		t.Error("default quantum must apply")
	}
}

// TestInitAppOverwrites: initApp must fully overwrite a dirty value.
func TestInitAppOverwrites(t *testing.T) {
	fresh, err := newApp(7, 0.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dirty := App{ID: 99, Demand: 0.9, reserved: 1, slack: 0.5, base: 0.9, lambda: 9}
	if err := initApp(&dirty, 7, 0.3, 0.02); err != nil {
		t.Fatal(err)
	}
	if dirty != *fresh {
		t.Errorf("initApp left residue: %+v vs %+v", dirty, *fresh)
	}
	if err := initApp(&dirty, 7, 0.3, 0); err == nil {
		t.Error("initApp accepted zero lambda")
	}
}
