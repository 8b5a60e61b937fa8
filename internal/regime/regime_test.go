// Package regime_test checks the R1–R5 regime model of package server
// (the boundaries of §4 and the classification of eqs. 1–5) through its
// exported API.
package regime_test

import (
	"testing"
	"testing/quick"

	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/xrand"
)

func testBoundaries() server.Boundaries {
	return server.Boundaries{SoptLow: 0.22, OptLow: 0.35, OptHigh: 0.70, SoptHigh: 0.82}
}

func almostEq(a, b units.Fraction) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func mod1(x float64) float64 {
	if x < 0 {
		x = -x
	}
	for x > 1 {
		x /= 10
	}
	return x
}

func TestRegionString(t *testing.T) {
	want := map[server.Region]string{server.R1: "R1", server.R2: "R2", server.R3: "R3", server.R4: "R4", server.R5: "R5"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if server.Region(0).String() != "Region(0)" {
		t.Error("unknown region must render with value")
	}
}

func TestRegionPredicates(t *testing.T) {
	if !server.R4.Overloaded() || !server.R5.Overloaded() || server.R3.Overloaded() {
		t.Error("Overloaded wrong")
	}
}

func TestClassify(t *testing.T) {
	b := testBoundaries()
	tests := []struct {
		load units.Fraction
		want server.Region
	}{
		{0.0, server.R1},
		{0.10, server.R1},
		{0.219, server.R1},
		{0.22, server.R2}, // SoptLow inclusive into R2 per eq. (2)
		{0.30, server.R2},
		{0.349, server.R2},
		{0.35, server.R3}, // OptLow inclusive into R3 per eq. (3)
		{0.50, server.R3},
		{0.70, server.R3}, // OptHigh inclusive into R3
		{0.71, server.R4},
		{0.82, server.R4}, // SoptHigh inclusive into R4 per eq. (4)
		{0.83, server.R5},
		{1.0, server.R5},
	}
	for _, tt := range tests {
		if got := b.Classify(tt.load); got != tt.want {
			t.Errorf("Classify(%v) = %v, want %v", tt.load, got, tt.want)
		}
	}
}

func TestClassifyClampsInput(t *testing.T) {
	b := testBoundaries()
	if b.Classify(-0.5) != server.R1 {
		t.Error("negative load must classify as R1")
	}
	if b.Classify(1.5) != server.R5 {
		t.Error("load above 1 must classify as R5")
	}
}

func TestValidate(t *testing.T) {
	if err := testBoundaries().Validate(); err != nil {
		t.Errorf("valid boundaries rejected: %v", err)
	}
	bad := []server.Boundaries{
		{SoptLow: 0.4, OptLow: 0.3, OptHigh: 0.7, SoptHigh: 0.8},  // unordered
		{SoptLow: 0.2, OptLow: 0.3, OptHigh: 0.9, SoptHigh: 0.8},  // unordered
		{SoptLow: -0.1, OptLow: 0.3, OptHigh: 0.7, SoptHigh: 0.8}, // out of range
		{SoptLow: 0.2, OptLow: 0.3, OptHigh: 0.7, SoptHigh: 1.2},  // out of range
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: invalid boundaries accepted: %+v", i, b)
		}
	}
}

func TestOptimalTarget(t *testing.T) {
	b := testBoundaries()
	want := units.Fraction((0.35 + 0.70) / 2)
	if got := b.OptimalTarget(); !almostEq(got, want) {
		t.Errorf("OptimalTarget = %v, want %v", got, want)
	}
	if b.Classify(b.OptimalTarget()) != server.R3 {
		t.Error("optimal target must lie in R3")
	}
}

func TestHeadroomExcessDeficit(t *testing.T) {
	b := testBoundaries()
	if got := b.Headroom(0.5); !almostEq(got, 0.2) {
		t.Errorf("Headroom(0.5) = %v, want 0.2", got)
	}
	if b.Headroom(0.9) != 0 {
		t.Error("no headroom above OptHigh")
	}
	if got := b.Excess(0.9); !almostEq(got, 0.2) {
		t.Errorf("Excess(0.9) = %v, want 0.2", got)
	}
	if b.Excess(0.5) != 0 {
		t.Error("no excess below OptHigh")
	}
}

func TestDefaultRangesMatchPaper(t *testing.T) {
	p := server.DefaultRanges()
	if p.SoptLow != [2]float64{0.20, 0.25} ||
		p.OptLow != [2]float64{0.25, 0.45} ||
		p.OptHigh != [2]float64{0.55, 0.80} ||
		p.SoptHigh != [2]float64{0.80, 0.85} {
		t.Errorf("ranges diverge from §4: %+v", p)
	}
}

func TestRandomBoundariesAlwaysValid(t *testing.T) {
	rng := xrand.New(99)
	p := server.DefaultRanges()
	for i := 0; i < 10000; i++ {
		b, err := p.Random(rng)
		if err != nil {
			t.Fatal(err)
		}
		if b.SoptLow < 0.20 || b.SoptLow >= 0.25 ||
			b.OptLow < 0.25 || b.OptLow >= 0.45 ||
			b.OptHigh < 0.55 || b.OptHigh >= 0.80 ||
			b.SoptHigh < 0.80 || b.SoptHigh >= 0.85 {
			t.Fatalf("boundaries outside paper ranges: %+v", b)
		}
	}
}

func TestWithDelta(t *testing.T) {
	b, err := server.WithDelta(0.65, 0.065) // δ = 0.1 × 0.65
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(b.OptLow, 0.585) || !almostEq(b.OptHigh, 0.715) {
		t.Errorf("optimal region = [%v,%v]", b.OptLow, b.OptHigh)
	}
	if !almostEq(b.SoptLow, 0.52) || !almostEq(b.SoptHigh, 0.78) {
		t.Errorf("suboptimal bands = [%v,%v]", b.SoptLow, b.SoptHigh)
	}
	if _, err := server.WithDelta(1.5, 0.05); err == nil {
		t.Error("invalid opt must error")
	}
	if _, err := server.WithDelta(0.5, -0.1); err == nil {
		t.Error("negative delta must error")
	}
	// Clamping near the edges keeps boundaries valid.
	if bb, err := server.WithDelta(0.02, 0.05); err != nil || bb.SoptLow != 0 {
		t.Errorf("edge clamping failed: %+v err=%v", bb, err)
	}
}

func TestClassifyTotalProperty(t *testing.T) {
	// Every load maps to exactly one valid region, and the region is
	// monotone in load.
	rng := xrand.New(7)
	p := server.DefaultRanges()
	f := func(l1, l2 float64) bool {
		b, err := p.Random(rng)
		if err != nil {
			return false
		}
		a := units.Fraction(mod1(l1))
		c := units.Fraction(mod1(l2))
		if a > c {
			a, c = c, a
		}
		ra, rc := b.Classify(a), b.Classify(c)
		return ra >= server.R1 && rc <= server.R5 && ra <= rc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
