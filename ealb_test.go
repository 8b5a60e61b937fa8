package ealb

import (
	"context"
	"math"
	"strings"
	"testing"

	"ealb/internal/workload"
)

func TestFacadeClusterRoundTrip(t *testing.T) {
	cfg := DefaultClusterConfig(60, LowLoad(), 1)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunIntervals(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(st) != 5 {
		t.Fatalf("got %d interval stats", len(st))
	}
	if c.TotalEnergy() <= 0 {
		t.Error("no energy accounted")
	}
}

func TestFacadeBands(t *testing.T) {
	if math.Abs(LowLoad().Mean()-0.30) > 1e-12 || math.Abs(HighLoad().Mean()-0.70) > 1e-12 {
		t.Error("band means must match the paper")
	}
}

func TestFacadePolicyRoundTrip(t *testing.T) {
	cfg := DefaultFarmConfig()
	cfg.Horizon = 600
	rate := ConstantRate(1000)
	results, err := ComparePolicies(context.Background(), cfg, StandardPolicies(rate), rate)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("standard set has %d policies, want 6", len(results))
	}
}

func TestFacadeHomogeneousModel(t *testing.T) {
	r, err := PaperExample().EnergyRatio()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.25) > 1e-12 {
		t.Errorf("paper example ratio = %v, want 2.25", r)
	}
}

func TestFacadeExperimentNames(t *testing.T) {
	names := ExperimentNames()
	if len(names) == 0 {
		t.Fatal("no experiments registered")
	}
	for _, must := range []string{"figure2", "figure3", "table1", "table2"} {
		found := false
		for _, n := range names {
			if n == must {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q missing from registry", must)
		}
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment("table1", &sb, DefaultExperimentOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("table1 output wrong")
	}
	if err := RunExperiment("bogus", &sb, DefaultExperimentOptions()); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFacadeRunClusterExperiment(t *testing.T) {
	run, err := RunClusterExperiment(60, LowLoad(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if run.Size != 60 || len(run.Stats) != 10 {
		t.Errorf("run = size %d, %d stats", run.Size, len(run.Stats))
	}
}

// TestFacadeComposedWorkloads: a composed profile is a RateFunc the
// facade's policy entry points accept.
func TestFacadeComposedWorkloads(t *testing.T) {
	var r RateFunc = workload.Compose(ConstantRate(10), workload.TrendRate(0, 1), workload.SpikeRate(0, 100, 5, 10), workload.DiurnalRate(0, 0, 100))
	if r(6) != 10+6+100 {
		t.Errorf("composed rate = %v", r(6))
	}
}
