package power

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/units"
)

func TestLinearModel(t *testing.T) {
	m, err := NewLinear(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u    units.Fraction
		want units.Watts
	}{
		{0, 100}, {0.5, 150}, {1, 200}, {-1, 100}, {2, 200},
	}
	for _, tt := range tests {
		if got := m.Power(tt.u); got != tt.want {
			t.Errorf("Power(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
	if m.Idle() != 100 || m.Peak() != 200 {
		t.Error("Idle/Peak wrong")
	}
}

func TestNewLinearValidation(t *testing.T) {
	cases := []struct{ idle, peak units.Watts }{
		{-1, 100}, {0, 0}, {200, 100}, {100, -5},
	}
	for _, c := range cases {
		if _, err := NewLinear(c.idle, c.peak); err == nil {
			t.Errorf("NewLinear(%v,%v) should fail", c.idle, c.peak)
		}
	}
}

func TestProportional(t *testing.T) {
	m := Proportional{PeakW: 300}
	if m.Idle() != 0 {
		t.Error("ideal proportional server must draw nothing when idle")
	}
	if m.Power(0.5) != 150 || m.Power(1) != 300 {
		t.Error("proportional power wrong")
	}
	// 100% efficient at every operating point (§2).
	for _, u := range []units.Fraction{0.1, 0.3, 0.7, 1} {
		if e := Efficiency(m, u); math.Abs(e-1) > 1e-9 {
			t.Errorf("ideal efficiency at %v = %v, want 1", u, e)
		}
	}
}

func TestPiecewise(t *testing.T) {
	m, err := NewPiecewise([]units.Watts{100, 120, 200})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		u    units.Fraction
		want units.Watts
	}{
		{0, 100}, {0.25, 110}, {0.5, 120}, {0.75, 160}, {1, 200},
	}
	for _, tt := range tests {
		if got := m.Power(tt.u); math.Abs(float64(got-tt.want)) > 1e-9 {
			t.Errorf("Power(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
}

func TestPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise([]units.Watts{100}); err == nil {
		t.Error("single sample should fail")
	}
	if _, err := NewPiecewise([]units.Watts{100, 90}); err == nil {
		t.Error("decreasing samples should fail")
	}
}

func TestPowerMonotoneProperty(t *testing.T) {
	lin, _ := NewLinear(93, 186)
	pw, _ := NewPiecewise([]units.Watts{90, 95, 105, 120, 140, 165, 180, 190, 196, 199, 200})
	models := []Model{lin, Proportional{PeakW: 250}, pw}
	f := func(a, b float64) bool {
		ua := units.Fraction(math.Abs(math.Mod(a, 1)))
		ub := units.Fraction(math.Abs(math.Mod(b, 1)))
		if ua > ub {
			ua, ub = ub, ua
		}
		for _, m := range models {
			if m.Power(ua) > m.Power(ub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizedEnergy(t *testing.T) {
	m, _ := NewLinear(100, 200)
	if b := NormalizedEnergy(m, 0); math.Abs(float64(b)-0.5) > 1e-9 {
		t.Errorf("idle normalized energy = %v, want 0.5 (the 50%% idle draw of §1)", b)
	}
	if b := NormalizedEnergy(m, 1); math.Abs(float64(b)-1) > 1e-9 {
		t.Errorf("peak normalized energy = %v, want 1", b)
	}
}

func TestDynamicRange(t *testing.T) {
	m, _ := NewLinear(100, 200)
	if dr := DynamicRange(m); math.Abs(float64(dr)-0.5) > 1e-9 {
		t.Errorf("dynamic range = %v, want 0.5", dr)
	}
	if dr := DynamicRange(Proportional{PeakW: 100}); dr != 1 {
		t.Errorf("ideal dynamic range = %v, want 1", dr)
	}
}

func TestPerfPerWatt(t *testing.T) {
	m, _ := NewLinear(100, 200)
	if PerfPerWatt(m, 0) != 0 {
		t.Error("zero perf per watt at idle")
	}
	got := PerfPerWatt(m, 1)
	if math.Abs(got-1.0/200) > 1e-12 {
		t.Errorf("PerfPerWatt(1) = %v, want 0.005", got)
	}
}

func TestEfficiencyIncreasesWithLoadForLinear(t *testing.T) {
	// For an affine model with an idle floor, a/b is strictly increasing:
	// concentrating load is always more efficient — the premise of the
	// whole paper.
	m, _ := NewLinear(93, 186)
	prev := -1.0
	for i := 1; i <= 10; i++ {
		e := Efficiency(m, units.Fraction(float64(i)/10))
		if e <= prev {
			t.Fatalf("efficiency not increasing at u=%v: %v <= %v", float64(i)/10, e, prev)
		}
		prev = e
	}
}

func TestOptimalLoad(t *testing.T) {
	lin, _ := NewLinear(100, 200)
	if opt := OptimalLoad(lin); opt != 1 {
		t.Errorf("linear model optimum = %v, want 1 (max load)", opt)
	}
	// A super-linear tail (steeply rising power near full load) pushes the
	// optimum into the interior — matching the paper's picture of an
	// optimal region below 100% load.
	pw, _ := NewPiecewise([]units.Watts{100, 105, 110, 115, 120, 125, 130, 140, 170, 230, 320})
	opt := OptimalLoad(pw)
	if opt <= 0.5 || opt >= 1 {
		t.Errorf("piecewise optimum = %v, want interior point in (0.5,1)", opt)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	// Spot-check the exact constants of the paper's Table 1.
	tests := []struct {
		c    ServerClass
		year int
		want units.Watts
	}{
		{Volume, 2000, 186},
		{Volume, 2006, 225},
		{MidRange, 2000, 424},
		{MidRange, 2004, 574},
		{HighEnd, 2000, 5534},
		{HighEnd, 2006, 8163},
	}
	for _, tt := range tests {
		row, err := Table1Row(tt.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := row[tt.year-Table1Years[0]]; got != tt.want {
			t.Errorf("Table1Row(%v)[%d] = %v, want %v", tt.c, tt.year, got, tt.want)
		}
	}
}

func TestTable1PowerGrowsOverTime(t *testing.T) {
	for _, c := range []ServerClass{Volume, MidRange, HighEnd} {
		row, err := Table1Row(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != len(Table1Years) {
			t.Fatalf("row length %d != years %d", len(row), len(Table1Years))
		}
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1] {
				t.Errorf("%v power decreased from %d to %d", c, Table1Years[i-1], Table1Years[i])
			}
		}
	}
}

func TestTable1Errors(t *testing.T) {
	if _, err := Table1Row(ServerClass(42)); err == nil {
		t.Error("unknown class row must error")
	}
}

func TestTable1RowIsACopy(t *testing.T) {
	row, _ := Table1Row(Volume)
	row[0] = 0
	again, _ := Table1Row(Volume)
	if again[0] != 186 {
		t.Error("Table1Row must return a defensive copy")
	}
}

func TestServerClassString(t *testing.T) {
	if Volume.String() != "Vol" || MidRange.String() != "Mid" || HighEnd.String() != "High" {
		t.Error("class names must match the paper's Table 1 row labels")
	}
	if ServerClass(9).String() == "" {
		t.Error("unknown class must still render")
	}
}
