package cluster

import (
	"math"
	"testing"
)

// ledgerTotals sums the ledger's closed intervals.
func ledgerTotals(l *Ledger) Counts {
	var t Counts
	for _, c := range l.closed {
		t.Local += c.Local
		t.InCluster += c.InCluster
	}
	return t
}

func TestDecisionKindString(t *testing.T) {
	if vertical.String() != "vertical(local)" || horizontal.String() != "horizontal(in-cluster)" {
		t.Error("kind names wrong")
	}
	if decisionKind(9).String() != "Kind(9)" {
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
		if got := tt.c.ratio(); got != tt.want {
			t.Errorf("%+v.ratio() = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestLedgerFlow(t *testing.T) {
	var l Ledger
	l.record(vertical, 3)
	l.record(horizontal, 6)
	c := l.closeInterval()
	if c.Local != 3 || c.InCluster != 6 {
		t.Errorf("interval counts = %+v", c)
	}
	l.record(vertical, 4)
	l.closeInterval()
	series := l.ratioSeries()
	if len(series) != 2 || series[0] != 2 || series[1] != 0 {
		t.Errorf("ratio series = %v", series)
	}
	if got := l.MeanRatio(); got != 1 {
		t.Errorf("MeanRatio = %v, want 1", got)
	}
	if got := l.StdDevRatio(); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("StdDevRatio = %v, want sqrt(2)", got)
	}
	tot := ledgerTotals(&l)
	if tot.Local != 7 || tot.InCluster != 6 {
		t.Errorf("totals = %+v", tot)
	}
}

func TestCurrentIntervalNotLeaked(t *testing.T) {
	var l Ledger
	l.record(vertical, 1)
	if len(l.closed) != 0 {
		t.Error("open interval must not appear among the closed intervals")
	}
	l.closeInterval()
	l.record(horizontal, 5)
	if got := ledgerTotals(&l); got.InCluster != 0 {
		t.Error("totals must cover only closed intervals")
	}
}

func TestLedgerRecordPanics(t *testing.T) {
	var l Ledger
	for _, f := range []func(){
		func() { l.record(vertical, -1) },
		func() { l.record(decisionKind(9), 1) },
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
	var l Ledger
	if l.MeanRatio() != 0 || l.StdDevRatio() != 0 {
		t.Error("empty ledger stats must be zero")
	}
	if len(l.ratioSeries()) != 0 {
		t.Error("empty ledger series must be empty")
	}
}

// TestLedgerReset: reset must discard the full decision history so a
// rebuilt simulation starts from a clean ledger.
func TestLedgerReset(t *testing.T) {
	var l Ledger
	l.record(vertical, 3)
	l.record(horizontal, 2)
	l.closeInterval()
	l.record(vertical, 1)

	l.reset()
	if len(l.closed) != 0 {
		t.Errorf("closed intervals survived reset")
	}
	// The open interval must be empty too.
	if got := l.closeInterval(); got != (Counts{}) {
		t.Errorf("open interval survived reset: %+v", got)
	}
}
