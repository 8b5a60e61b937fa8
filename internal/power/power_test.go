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

func TestPowerMonotoneProperty(t *testing.T) {
	lin, _ := NewLinear(93, 186)
	models := []Model{lin}
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

func TestEfficiencyIncreasesWithLoadForLinear(t *testing.T) {
	// For an affine model with an idle floor, a/b is strictly increasing:
	// concentrating load is always more efficient — the premise of the
	// whole paper.
	m, _ := NewLinear(93, 186)
	prev := -1.0
	for i := 1; i <= 10; i++ {
		u := units.Fraction(float64(i) / 10)
		e := float64(u) / float64(NormalizedEnergy(m, u))
		if e <= prev {
			t.Fatalf("efficiency not increasing at u=%v: %v <= %v", float64(i)/10, e, prev)
		}
		prev = e
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
