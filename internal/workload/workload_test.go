package workload

import (
	"math"
	"testing"

	"ealb/internal/stats"
	"ealb/internal/units"
	"ealb/internal/xrand"
)

func TestBands(t *testing.T) {
	if LowLoad() != (Band{0.20, 0.40}) {
		t.Error("LowLoad must be the paper's 20-40% band")
	}
	if HighLoad() != (Band{0.60, 0.80}) {
		t.Error("HighLoad must be the paper's 60-80% band")
	}
	if math.Abs(LowLoad().Mean()-0.30) > 1e-12 || math.Abs(HighLoad().Mean()-0.70) > 1e-12 {
		t.Error("band means must be 30% and 70%")
	}
	for _, b := range []Band{{-0.1, 0.4}, {0.4, 0.2}, {0.5, 1.1}, {0.3, 0.3}} {
		if err := b.Validate(); err == nil {
			t.Errorf("invalid band accepted: %+v", b)
		}
	}
}

func TestInitialLoads(t *testing.T) {
	rng := xrand.New(1)
	loads, err := InitialLoads(rng, 10000, LowLoad())
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 10000 {
		t.Fatalf("got %d loads", len(loads))
	}
	var sum float64
	for _, l := range loads {
		if l < 0.20 || l >= 0.40 {
			t.Fatalf("load %v outside band", l)
		}
		sum += float64(l)
	}
	if mean := sum / 10000; math.Abs(mean-0.30) > 0.005 {
		t.Errorf("mean load = %v, want ~0.30", mean)
	}
}

func TestInitialLoadsErrors(t *testing.T) {
	rng := xrand.New(1)
	if _, err := InitialLoads(rng, 0, LowLoad()); err == nil {
		t.Error("zero servers must error")
	}
	if _, err := InitialLoads(rng, 5, Band{0.9, 0.1}); err == nil {
		t.Error("bad band must error")
	}
}

func TestAppSizesSumToTarget(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 1000; i++ {
		target := units.Fraction(rng.Uniform(0.2, 0.8))
		sizes, err := AppendAppSizes(nil, rng, target, 0.05, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		var sum units.Fraction
		for _, s := range sizes {
			if s <= 0 || s > 0.15+1e-9 {
				t.Fatalf("app size %v outside range", s)
			}
			sum += s
		}
		// Exact hit, or undershoot by less than the minimum size.
		if sum > target+1e-9 || float64(target-sum) >= 0.05 {
			t.Fatalf("sizes sum %v vs target %v", sum, target)
		}
	}
}

func TestAppSizesErrors(t *testing.T) {
	rng := xrand.New(3)
	if _, err := AppendAppSizes(nil, rng, 0.5, 0, 0.1); err == nil {
		t.Error("zero min size must error")
	}
	if _, err := AppendAppSizes(nil, rng, 0.5, 0.2, 0.1); err == nil {
		t.Error("inverted range must error")
	}
	if _, err := AppendAppSizes(nil, rng, 1.5, 0.05, 0.15); err == nil {
		t.Error("invalid target must error")
	}
}

func TestConstantRate(t *testing.T) {
	r := ConstantRate(42)
	if r(0) != 42 || r(1e6) != 42 {
		t.Error("constant rate must not vary")
	}
	if ConstantRate(-5)(0) != 0 {
		t.Error("negative rate must clamp to 0")
	}
}

func TestDiurnalRate(t *testing.T) {
	r := DiurnalRate(100, 50, 86400)
	if math.Abs(r(0)-100) > 1e-9 {
		t.Errorf("diurnal at t=0 = %v, want base 100", r(0))
	}
	if math.Abs(r(43200)-150) > 1e-9 {
		t.Errorf("diurnal at half period = %v, want peak 150", r(43200))
	}
	if math.Abs(r(86400)-100) > 1e-9 {
		t.Errorf("diurnal at full period = %v, want base 100", r(86400))
	}
	// Never negative, never above base+amplitude.
	for ts := units.Seconds(0); ts < 86400; ts += 3600 {
		v := r(ts)
		if v < 100-1e-9 || v > 150+1e-9 {
			t.Fatalf("diurnal rate %v outside [100,150] at t=%v", v, ts)
		}
	}
}

func TestSpikeRate(t *testing.T) {
	r := SpikeRate(10, 90, 100, 50)
	if r(99) != 10 {
		t.Error("before spike must be base")
	}
	if r(100) != 100 || r(149) != 100 {
		t.Error("inside spike must be base+height")
	}
	if r(150) != 10 {
		t.Error("after spike must return to base")
	}
}

func TestTrendRate(t *testing.T) {
	r := TrendRate(10, 0.5)
	if r(0) != 10 || r(100) != 60 {
		t.Error("trend rate wrong")
	}
	down := TrendRate(10, -1)
	if down(100) != 0 {
		t.Error("declining trend must clamp at 0")
	}
}

func TestCompose(t *testing.T) {
	r := Compose(ConstantRate(5), TrendRate(0, 1))
	if r(10) != 15 {
		t.Errorf("composed rate = %v, want 15", r(10))
	}
}

func TestArrivalsMatchesRate(t *testing.T) {
	rng := xrand.New(6)
	rate := ConstantRate(200)
	var rec stats.Running
	for i := 0; i < 2000; i++ {
		rec.Add(float64(Arrivals(rng, rate, units.Seconds(i), 1)))
	}
	if math.Abs(rec.Mean()-200) > 2 {
		t.Errorf("mean arrivals = %v, want ~200", rec.Mean())
	}
	// Poisson: variance ≈ mean.
	if math.Abs(rec.Variance()-200) > 25 {
		t.Errorf("arrival variance = %v, want ~200", rec.Variance())
	}
}

func TestArrivalsZeroDt(t *testing.T) {
	rng := xrand.New(7)
	if Arrivals(rng, ConstantRate(100), 0, 0) != 0 {
		t.Error("zero-width slot must produce no arrivals")
	}
}
