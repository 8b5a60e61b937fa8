package cluster

import (
	"context"
	"testing"

	"ealb/internal/workload"
)

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

// TestLedgerFlow: decisions counted in the open interval close into that
// interval's record, with its ratio, and the next interval starts from
// an empty tally. The decision counts feed nothing in the protocol, so
// a twin cluster without the extra decisions is the reference.
func TestLedgerFlow(t *testing.T) {
	c := mustCluster(t, 60, workload.LowLoad(), 4)
	twin := mustCluster(t, 60, workload.LowLoad(), 4)
	c.decisions.Local += 3
	c.decisions.InCluster += 6
	got, err := c.RunIntervals(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.RunIntervals(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	d := got[0].Decisions
	if d.Local != want[0].Decisions.Local+3 || d.InCluster != want[0].Decisions.InCluster+6 {
		t.Errorf("interval 1 decisions = %+v, want the twin's %+v plus 3 local and 6 in-cluster", d, want[0].Decisions)
	}
	if got[0].Ratio != d.ratio() {
		t.Errorf("interval 1 ratio = %v, want %v", got[0].Ratio, d.ratio())
	}
	if got[1].Decisions != want[1].Decisions || got[1].Ratio != want[1].Ratio {
		t.Errorf("interval 2 = %+v (ratio %v), want the twin's %+v (ratio %v)",
			got[1].Decisions, got[1].Ratio, want[1].Decisions, want[1].Ratio)
	}
}

// TestCurrentIntervalNotLeaked: at every interval boundary the open
// decision tally and migration count are empty, so no interval's
// decisions or moves carry into the next record.
func TestCurrentIntervalNotLeaked(t *testing.T) {
	c := mustCluster(t, 80, workload.HighLoad(), 6)
	moved := 0
	for range 15 {
		sts, err := c.RunIntervals(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		moved += sts[0].Migrations
		if c.decisions != (Counts{}) || c.intervalMigrations != 0 {
			t.Fatalf("interval %d left %+v decisions and %d migrations open",
				sts[0].Index, c.decisions, c.intervalMigrations)
		}
	}
	if moved == 0 {
		t.Fatal("no interval migrated anything; the check saw nothing close")
	}
}

// TestLedgerReset: Rebuild discards the open interval's decisions, so a
// rebuilt cluster's first records equal a fresh cluster's.
func TestLedgerReset(t *testing.T) {
	cfg := DefaultConfig(60, workload.LowLoad(), 8)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	c.decisions = Counts{Local: 5, InCluster: 2}
	c.intervalMigrations = 2
	if err := c.Rebuild(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := c.RunIntervals(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunIntervals(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Decisions != want[i].Decisions || got[i].Migrations != want[i].Migrations {
			t.Errorf("interval %d after Rebuild: %+v, %d migrations; fresh: %+v, %d migrations",
				i+1, got[i].Decisions, got[i].Migrations, want[i].Decisions, want[i].Migrations)
		}
	}
}
