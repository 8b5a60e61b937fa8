package experiments

import (
	"math"
	"testing"

	"ealb/internal/server"
	"ealb/internal/units"
)

func TestNormalizedEnergy(t *testing.T) {
	m, _ := server.NewLinearPower(100, 200)
	if b := normalizedEnergy(m, 0); math.Abs(float64(b)-0.5) > 1e-9 {
		t.Errorf("idle normalized energy = %v, want 0.5 (the 50%% idle draw of §1)", b)
	}
	if b := normalizedEnergy(m, 1); math.Abs(float64(b)-1) > 1e-9 {
		t.Errorf("peak normalized energy = %v, want 1", b)
	}
}

func TestEfficiencyIncreasesWithLoadForLinear(t *testing.T) {
	// For an affine model with an idle floor, a/b is strictly increasing:
	// concentrating load is always more efficient — the premise of the
	// whole paper.
	m, _ := server.NewLinearPower(93, 186)
	prev := -1.0
	for i := 1; i <= 10; i++ {
		u := units.Fraction(float64(i) / 10)
		e := float64(u) / float64(normalizedEnergy(m, u))
		if e <= prev {
			t.Fatalf("efficiency not increasing at u=%v: %v <= %v", float64(i)/10, e, prev)
		}
		prev = e
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	// Spot-check the exact constants of the paper's Table 1.
	tests := []struct {
		c    serverClass
		year int
		want units.Watts
	}{
		{classVolume, 2000, 186},
		{classVolume, 2006, 225},
		{classMidRange, 2000, 424},
		{classMidRange, 2004, 574},
		{classHighEnd, 2000, 5534},
		{classHighEnd, 2006, 8163},
	}
	for _, tt := range tests {
		row, err := table1Row(tt.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := row[tt.year-table1Years[0]]; got != tt.want {
			t.Errorf("Table1Row(%v)[%d] = %v, want %v", tt.c, tt.year, got, tt.want)
		}
	}
}

func TestTable1PowerGrowsOverTime(t *testing.T) {
	for _, c := range []serverClass{classVolume, classMidRange, classHighEnd} {
		row, err := table1Row(c)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != len(table1Years) {
			t.Fatalf("row length %d != years %d", len(row), len(table1Years))
		}
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1] {
				t.Errorf("%v power decreased from %d to %d", c, table1Years[i-1], table1Years[i])
			}
		}
	}
}

func TestTable1Errors(t *testing.T) {
	if _, err := table1Row(serverClass(42)); err == nil {
		t.Error("unknown class row must error")
	}
}

func TestTable1RowIsACopy(t *testing.T) {
	row, _ := table1Row(classVolume)
	row[0] = 0
	again, _ := table1Row(classVolume)
	if again[0] != 186 {
		t.Error("Table1Row must return a defensive copy")
	}
}

func TestServerClassString(t *testing.T) {
	if classVolume.String() != "Vol" || classMidRange.String() != "Mid" || classHighEnd.String() != "High" {
		t.Error("class names must match the paper's Table 1 row labels")
	}
	if serverClass(9).String() == "" {
		t.Error("unknown class must still render")
	}
}
