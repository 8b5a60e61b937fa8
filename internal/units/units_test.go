package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnergy(t *testing.T) {
	tests := []struct {
		p    Watts
		d    Seconds
		want Joules
	}{
		{100, 10, 1000},
		{0, 100, 0},
		{250, 0, 0},
		{1.5, 2, 3},
	}
	for _, tt := range tests {
		if got := Energy(tt.p, tt.d); got != tt.want {
			t.Errorf("Energy(%v,%v) = %v, want %v", tt.p, tt.d, got, tt.want)
		}
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(p float64, d float64) bool {
		p = math.Abs(math.Mod(p, 1e6))
		d = math.Abs(math.Mod(d, 1e6)) + 1e-3
		back := float64(Energy(Watts(p), Seconds(d))) / d
		return math.Abs(back-p) < 1e-6*(1+p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKWh(t *testing.T) {
	if got := Joules(3.6e6).KWh(); got != 1 {
		t.Errorf("3.6e6 J = %v kWh, want 1", got)
	}
}

func TestJoulesString(t *testing.T) {
	tests := []struct {
		e    Joules
		want string
	}{
		{1, "1.000 J"},
		{1500, "1.500 kJ"},
		{2.5e6, "2.500 MJ"},
		{3e9, "3.000 GJ"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("Joules(%v).String() = %q, want %q", float64(tt.e), got, tt.want)
		}
	}
}

func TestWattsString(t *testing.T) {
	tests := []struct {
		w    Watts
		want string
	}{
		{200, "200.00 W"},
		{1500, "1.500 kW"},
		{2e6, "2.000 MW"},
	}
	for _, tt := range tests {
		if got := tt.w.String(); got != tt.want {
			t.Errorf("Watts(%v).String() = %q, want %q", float64(tt.w), got, tt.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	tests := []struct {
		b    Bytes
		want string
	}{
		{512, "512 B"},
		{2 * KB, "2.00 KiB"},
		{3 * MB, "3.00 MiB"},
		{4 * GB, "4.00 GiB"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(tt.b), got, tt.want)
		}
	}
}

func TestFractionClamp(t *testing.T) {
	tests := []struct {
		in, want Fraction
	}{
		{-0.5, 0},
		{0, 0},
		{0.5, 0.5},
		{1, 1},
		{1.5, 1},
	}
	for _, tt := range tests {
		if got := tt.in.Clamp(); got != tt.want {
			t.Errorf("Fraction(%v).Clamp() = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestFractionClampProperty(t *testing.T) {
	f := func(x float64) bool {
		c := Fraction(x).Clamp()
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFractionValid(t *testing.T) {
	for _, v := range []Fraction{0, 0.5, 1, 1 + 1e-12} {
		if !v.Valid() {
			t.Errorf("Fraction(%v) should be valid", v)
		}
	}
	for _, v := range []Fraction{-0.1, 1.1, Fraction(math.NaN()), Fraction(math.Inf(1))} {
		if v.Valid() {
			t.Errorf("Fraction(%v) should be invalid", v)
		}
	}
}

func TestFractionPercent(t *testing.T) {
	if got := Fraction(0.305).Percent(); got != "30.5%" {
		t.Errorf("Percent = %q, want 30.5%%", got)
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(100*MB, 100*MB); got != 1 {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if got := TransferTime(MB, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("TransferTime with zero bandwidth must be +Inf, got %v", got)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		small, big := Bytes(a%1000+1), Bytes(a%1000+1)+Bytes(b%1000+1)
		bw := Bytes(10 * MB)
		return TransferTime(small, bw) <= TransferTime(big, bw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
