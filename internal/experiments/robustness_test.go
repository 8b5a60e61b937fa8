package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"ealb/internal/cluster"
	"ealb/internal/units"
	"ealb/internal/workload"
)

func sampleStats() cluster.IntervalStats {
	return cluster.IntervalStats{
		Index:          3,
		EndTime:        180,
		Sleeping:       5,
		Woken:          1,
		Decisions:      cluster.Counts{Local: 10, InCluster: 4},
		Ratio:          0.4,
		Migrations:     4,
		SLAViolations:  2,
		ClusterLoad:    units.Fraction(0.31),
		IntervalEnergy: units.Joules(1234.5),
	}
}

// TestWriteCSVExactBytes pins the CSV layout: the header row, the column
// order, which record field fills each column, and %g for the float
// columns.
func TestWriteCSVExactBytes(t *testing.T) {
	sts := []cluster.IntervalStats{
		sampleStats(),
		{Index: 4, Ratio: 1.25, Decisions: cluster.Counts{Local: 8, InCluster: 10}, Migrations: 10,
			Sleeping: 6, ClusterLoad: 0.305, IntervalEnergy: 2000},
	}
	var sb strings.Builder
	if err := writeCSV(&sb, sts); err != nil {
		t.Fatal(err)
	}
	want := "interval,ratio,local,incluster,migrations,sleeping,woken,sla_violations,cluster_load,energy_j\n" +
		"3,0.4,10,4,4,5,1,2,0.31,1234.5\n" +
		"4,1.25,8,10,10,6,0,0,0.305,2000\n"
	if sb.String() != want {
		t.Errorf("CSV bytes drifted:\n got %q\nwant %q", sb.String(), want)
	}
}

func TestAggregateSeries(t *testing.T) {
	a := []cluster.IntervalStats{{Ratio: 1, Sleeping: 2}, {Ratio: 3, Sleeping: 4}}
	b := []cluster.IntervalStats{{Ratio: 3, Sleeping: 4}, {Ratio: 5, Sleeping: 8}}
	agg, err := aggregateSeries([][]cluster.IntervalStats{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 2 {
		t.Errorf("runs = %d", agg.Runs)
	}
	if agg.Mean[0] != 2 || agg.Mean[1] != 4 {
		t.Errorf("means = %v", agg.Mean)
	}
	if agg.Sleep[0] != 3 || agg.Sleep[1] != 6 {
		t.Errorf("sleep means = %v", agg.Sleep)
	}
	if math.Abs(agg.Std[0]-math.Sqrt2) > 1e-12 {
		t.Errorf("std = %v", agg.Std)
	}
}

func TestAggregateSeriesErrors(t *testing.T) {
	if _, err := aggregateSeries(nil); err == nil {
		t.Error("empty aggregation must error")
	}
	if _, err := aggregateSeries([][]cluster.IntervalStats{{{Ratio: 1}}, {}}); err == nil {
		t.Error("mismatched lengths must error")
	}
}

// TestFromRunAndCSVOnRealSimulation: the CSV of a real cluster run
// carries one row per interval record, in order, with every ratio
// written at full precision.
func TestFromRunAndCSVOnRealSimulation(t *testing.T) {
	c, err := cluster.New(cluster.DefaultConfig(40, workload.LowLoad(), 9))
	if err != nil {
		t.Fatal(err)
	}
	sts, err := c.RunIntervals(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := writeCSV(&sb, sts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 1+len(sts) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(sts))
	}
	for i, st := range sts {
		fields := strings.Split(lines[i+1], ",")
		if len(fields) != len(csvHeader) {
			t.Fatalf("row %d has %d fields, want %d", i, len(fields), len(csvHeader))
		}
		if fields[0] != strconv.Itoa(st.Index) {
			t.Errorf("row %d interval = %s, want %d", i, fields[0], st.Index)
		}
		if ratio, err := strconv.ParseFloat(fields[1], 64); err != nil || ratio != st.Ratio {
			t.Errorf("row %d ratio = %s, want %v", i, fields[1], st.Ratio)
		}
	}
}
