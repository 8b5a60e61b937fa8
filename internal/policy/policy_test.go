package policy

import (
	"context"
	"testing"

	"ealb/internal/units"
	"ealb/internal/workload"
)

func needFor(perServer float64, max int) func(float64) int {
	return func(r float64) int {
		n := int(r/perServer + 0.999999)
		if n > max {
			n = max
		}
		if n < 1 {
			n = 1
		}
		return n
	}
}

func TestReactiveTracksLatest(t *testing.T) {
	p := Reactive{}
	need := needFor(100, 1000)
	h := History{Window: []float64{100, 500, 950}}
	if got := p.Target(h, need); got != 10 {
		t.Errorf("reactive target = %d, want 10", got)
	}
	if got := p.Target(History{}, need); got != 1 {
		t.Errorf("empty history target = %d, want floor 1", got)
	}
}

func TestReactiveExtraAddsMargin(t *testing.T) {
	p := ReactiveExtra{Margin: 0.2}
	need := needFor(100, 1000)
	h := History{Window: []float64{1000}}
	if got := p.Target(h, need); got != 12 {
		t.Errorf("reactive+20%% target = %d, want 12", got)
	}
	if p.Name() != "reactive+20%" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestAutoScaleHoldsBeforeRelease(t *testing.T) {
	p := NewAutoScale(0, 3)
	need := needFor(100, 1000)
	// Demand rises to 10 servers, then falls to 2.
	if got := p.Target(History{Window: []float64{1000}}, need); got != 10 {
		t.Fatalf("scale-up target = %d, want 10", got)
	}
	low := History{Window: []float64{200}}
	// Two low observations: still holding.
	if got := p.Target(low, need); got != 10 {
		t.Errorf("after 1 low slot target = %d, want held 10", got)
	}
	if got := p.Target(low, need); got != 10 {
		t.Errorf("after 2 low slots target = %d, want held 10", got)
	}
	// Third consecutive low slot releases exactly one server.
	if got := p.Target(low, need); got != 9 {
		t.Errorf("after hold expiry target = %d, want 9", got)
	}
}

func TestAutoScaleConstructorClamps(t *testing.T) {
	p := NewAutoScale(-1, 0)
	if p.Margin != 0 || p.HoldSlots != 1 {
		t.Errorf("constructor must clamp: %+v", p)
	}
}

func TestMovingWindowAverages(t *testing.T) {
	p := MovingWindow{}
	need := needFor(100, 1000)
	h := History{Window: []float64{100, 200, 300}}
	if got := p.Target(h, need); got != 2 {
		t.Errorf("moving-window target = %d, want 2 (mean 200)", got)
	}
}

func TestLinearRegressionExtrapolates(t *testing.T) {
	p := LinearRegression{}
	need := needFor(100, 1000)
	// Rate climbing 100/slot: window [100..500] predicts 600.
	h := History{Window: []float64{100, 200, 300, 400, 500}}
	if got := p.Target(h, need); got != 6 {
		t.Errorf("regression target = %d, want 6", got)
	}
	// Falling trend never predicts negative.
	h = History{Window: []float64{200, 100, 0}}
	if got := p.Target(h, need); got < 1 {
		t.Errorf("regression target = %d, want >= 1", got)
	}
	// Degenerate windows fall back to reactive.
	if got := p.Target(History{Window: []float64{300}}, need); got != 3 {
		t.Errorf("single-point fallback = %d, want 3", got)
	}
}

func TestOracleSeesThroughSetup(t *testing.T) {
	spike := workload.SpikeRate(100, 900, 1000, 500)
	p := Oracle{Rate: spike, Setup: 260}
	need := needFor(100, 1000)
	// At t=800 the spike (t=1000) is within the 260s setup horizon.
	if got := p.Target(History{Now: 800}, need); got != 10 {
		t.Errorf("oracle pre-spike target = %d, want 10", got)
	}
	// At t=100 the spike is beyond the horizon.
	if got := p.Target(History{Now: 100}, need); got != 1 {
		t.Errorf("oracle far-from-spike target = %d, want 1", got)
	}
}

func TestFarmConfigValidate(t *testing.T) {
	if err := DefaultFarmConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*FarmConfig){
		func(c *FarmConfig) { c.Servers = 0 },
		func(c *FarmConfig) { c.Horizon = 1 },
	}
	for i, m := range mutations {
		cfg := DefaultFarmConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSimulateBasics(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 1800
	res, err := Simulate(context.Background(), cfg, Reactive{}, workload.ConstantRate(2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 180 {
		t.Errorf("slots = %d, want 180", res.Slots)
	}
	if res.Energy <= 0 {
		t.Error("energy must be positive")
	}
	if res.AvgActive < 15 || res.AvgActive > 30 {
		t.Errorf("avg active = %v, want ~20 for 2000 req/s at 100/server", res.AvgActive)
	}
	if res.DropRate() > 0.05 {
		t.Errorf("drop rate %v too high on a constant load", res.DropRate())
	}
}

func TestSimulateErrors(t *testing.T) {
	cfg := DefaultFarmConfig()
	if _, err := Simulate(context.Background(), cfg, nil, workload.ConstantRate(1)); err == nil {
		t.Error("nil policy must error")
	}
	if _, err := Simulate(context.Background(), cfg, Reactive{}, nil); err == nil {
		t.Error("nil rate must error")
	}
	cfg.Servers = 0
	if _, err := Simulate(context.Background(), cfg, Reactive{}, workload.ConstantRate(1)); err == nil {
		t.Error("invalid config must error")
	}
}

func TestSpikeViolations(t *testing.T) {
	// §3: the reactive policy leads to SLA violations on spiky loads
	// because setup takes too long; autoscale (which holds capacity) and
	// the oracle do better.
	cfg := DefaultFarmConfig()
	cfg.Horizon = 3600
	// A flash crowd arrives at t=1800 after a long quiet phase.
	rate := workload.SpikeRate(500, 4500, 1800, 600)

	reactive, err := Simulate(context.Background(), cfg, Reactive{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Simulate(context.Background(), cfg, Oracle{Rate: rate, Setup: SetupTime}, rate)
	if err != nil {
		t.Fatal(err)
	}
	if reactive.Dropped == 0 {
		t.Error("reactive must drop requests on an unpredicted spike (setup lag)")
	}
	if oracle.Dropped >= reactive.Dropped {
		t.Errorf("oracle dropped %d, reactive %d — oracle must win", oracle.Dropped, reactive.Dropped)
	}
}

func TestExtraCapacityTradesEnergyForViolations(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 3600
	rate := workload.Compose(workload.ConstantRate(800), workload.SpikeRate(0, 1200, 1200, 400))
	plain, err := Simulate(context.Background(), cfg, Reactive{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := Simulate(context.Background(), cfg, ReactiveExtra{Margin: 0.3}, rate)
	if err != nil {
		t.Fatal(err)
	}
	if extra.Energy <= plain.Energy {
		t.Error("a safety margin must cost energy")
	}
	if extra.Dropped > plain.Dropped {
		t.Errorf("margin must not worsen drops: %d vs %d", extra.Dropped, plain.Dropped)
	}
}

func TestAlwaysOnBaselineUsesMostEnergy(t *testing.T) {
	// The §3 premise: any dynamic policy beats leaving every server on.
	cfg := DefaultFarmConfig()
	cfg.Horizon = 3600
	rate := workload.ConstantRate(2000)
	dynamic, err := Simulate(context.Background(), cfg, Reactive{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	// Always-on: a "policy" that pins the target at the farm size.
	alwaysOn, err := Simulate(context.Background(), cfg, ReactiveExtra{Margin: 1e9}, rate)
	if err != nil {
		t.Fatal(err)
	}
	if dynamic.Energy >= alwaysOn.Energy {
		t.Errorf("dynamic %v must use less than always-on %v", dynamic.Energy, alwaysOn.Energy)
	}
}

func TestCompareRunsAll(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 1200
	rate := workload.DiurnalRate(500, 1500, 7200)
	pols := StandardSet(rate)
	results, err := Compare(context.Background(), cfg, pols, rate)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pols) {
		t.Fatalf("got %d results for %d policies", len(results), len(pols))
	}
	names := map[string]bool{}
	for _, r := range results {
		if names[r.Policy] {
			t.Errorf("duplicate policy name %q", r.Policy)
		}
		names[r.Policy] = true
		if r.Slots == 0 || r.Energy <= 0 {
			t.Errorf("policy %q produced empty result", r.Policy)
		}
	}
}

func TestResultRates(t *testing.T) {
	r := Result{ViolationSlots: 5, Slots: 100, Dropped: 10, Served: 90}
	if r.DropRate() != 0.1 {
		t.Errorf("drop rate = %v", r.DropRate())
	}
	var empty Result
	if empty.DropRate() != 0 {
		t.Error("empty result drop rate must be 0")
	}
}

func TestResponseTimeModel(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 1800
	// A generously provisioned farm: low utilization, fast responses.
	relaxed, err := Simulate(context.Background(), cfg, ReactiveExtra{Margin: 1.0}, workload.ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	// A tightly provisioned farm: high utilization, slow responses.
	tight, err := Simulate(context.Background(), cfg, Reactive{}, workload.ConstantRate(1000))
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.MeanResponse <= 0 || tight.MeanResponse <= 0 {
		t.Fatal("response estimates must be positive")
	}
	if relaxed.MeanResponse >= tight.MeanResponse {
		t.Errorf("doubling capacity must cut response time: %v vs %v",
			relaxed.MeanResponse, tight.MeanResponse)
	}
	if relaxed.RTViolationSlots > tight.RTViolationSlots {
		t.Errorf("relaxed provisioning must not violate more: %d vs %d",
			relaxed.RTViolationSlots, tight.RTViolationSlots)
	}
	// Reactive at exact need runs servers near ρ≈1: the 5×service-time
	// target must be breached regularly.
	if tight.RTViolationSlots == 0 {
		t.Error("tight provisioning with Poisson arrivals must breach the response target")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 1200
	rate := workload.DiurnalRate(500, 1500, 7200)
	a, err := Simulate(context.Background(), cfg, Reactive{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(context.Background(), cfg, Reactive{}, rate)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical seeds must give identical results")
	}
}

var _ = units.Seconds(0) // keep the units import tied to the test file
