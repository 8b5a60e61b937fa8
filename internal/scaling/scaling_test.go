package scaling

import (
	"math"
	"testing"
)

func TestKindString(t *testing.T) {
	if Vertical.String() != "vertical(local)" || Horizontal.String() != "horizontal(in-cluster)" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind must render with value")
	}
}

func TestCountsRatio(t *testing.T) {
	tests := []struct {
		c    Counts
		want float64
	}{
		{Counts{Local: 10, InCluster: 5}, 0.5},
		{Counts{Local: 4, InCluster: 8}, 2},
		{Counts{Local: 0, InCluster: 3}, 3}, // guard denominator
		{Counts{Local: 0, InCluster: 0}, 0},
		{Counts{Local: 7, InCluster: 0}, 0},
	}
	for _, tt := range tests {
		if got := tt.c.Ratio(); got != tt.want {
			t.Errorf("%+v.Ratio() = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestLedgerFlow(t *testing.T) {
	l := NewLedger()
	l.Record(Vertical, 3)
	l.Record(Horizontal, 6)
	c := l.CloseInterval()
	if c.Local != 3 || c.InCluster != 6 {
		t.Errorf("interval counts = %+v", c)
	}
	l.Record(Vertical, 4)
	l.CloseInterval()
	series := l.RatioSeries()
	if len(series) != 2 || series[0] != 2 || series[1] != 0 {
		t.Errorf("ratio series = %v", series)
	}
	if got := l.MeanRatio(); got != 1 {
		t.Errorf("MeanRatio = %v, want 1", got)
	}
	if got := l.StdDevRatio(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("StdDevRatio = %v, want sqrt(2)", got)
	}
	tot := l.Totals()
	if tot.Local != 7 || tot.InCluster != 6 {
		t.Errorf("Totals = %+v", tot)
	}
}

func TestCurrentIntervalNotLeaked(t *testing.T) {
	l := NewLedger()
	l.Record(Vertical, 1)
	if len(l.Intervals()) != 0 {
		t.Error("open interval must not appear in Intervals")
	}
	l.CloseInterval()
	l.Record(Horizontal, 5)
	if got := l.Totals(); got.InCluster != 0 {
		t.Error("Totals must cover only closed intervals")
	}
}

func TestIntervalsReturnsCopy(t *testing.T) {
	l := NewLedger()
	l.Record(Vertical, 1)
	l.CloseInterval()
	got := l.Intervals()
	got[0].Local = 99
	if l.Intervals()[0].Local != 1 {
		t.Error("Intervals must return a defensive copy")
	}
}

func TestRecordPanics(t *testing.T) {
	l := NewLedger()
	for _, f := range []func(){
		func() { l.Record(Vertical, -1) },
		func() { l.Record(Kind(9), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEmptyLedgerStats(t *testing.T) {
	l := NewLedger()
	if l.MeanRatio() != 0 || l.StdDevRatio() != 0 {
		t.Error("empty ledger stats must be zero")
	}
	if len(l.RatioSeries()) != 0 {
		t.Error("empty ledger series must be empty")
	}
}
