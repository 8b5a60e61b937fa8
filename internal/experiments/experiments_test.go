package experiments

import (
	"context"
	"strings"
	"testing"

	"ealb/internal/engine"
	"ealb/internal/server"
	"ealb/internal/workload"
)

// testOptions keeps experiment tests fast: small clusters, full interval
// count (the dynamics need the 40 intervals to show their shape).
func testOptions() Options {
	return Options{Seed: DefaultSeed, Intervals: DefaultIntervals, Sizes: []int{60, 200}}
}

func TestRunClusterShapes(t *testing.T) {
	low, err := engine.RunCluster(context.Background(), 200, workload.LowLoad(), 7, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	high, err := engine.RunCluster(context.Background(), 200, workload.HighLoad(), 7, 40, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 2 shape: initial mass left at 30%, right at 70%.
	if low.Before[3]+low.Before[4] != 0 {
		t.Errorf("30%% initial distribution has R4/R5: %v", low.Before)
	}
	if high.Before[0]+high.Before[1] != 0 {
		t.Errorf("70%% initial distribution has R1/R2: %v", high.Before)
	}

	// Table 2 shape: sleeping only at low load.
	if low.Sleeping == 0 {
		t.Error("30% load must consolidate servers to sleep")
	}
	if high.Sleeping != 0 {
		t.Errorf("70%% load must not sleep servers, got %d", high.Sleeping)
	}

	// Figure 3 shape: high-load crossover earlier.
	if high.Crossover() >= low.Crossover() {
		t.Errorf("crossovers: high %d must precede low %d", high.Crossover(), low.Crossover())
	}
}

func TestRatiosLength(t *testing.T) {
	run, err := engine.RunCluster(context.Background(), 60, workload.LowLoad(), 3, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Ratios()) != 10 {
		t.Errorf("ratio series length %d, want 10", len(run.Ratios()))
	}
}

func TestCrossoverNoCrossing(t *testing.T) {
	run := ClusterRun{}
	if run.Crossover() != 0 {
		t.Error("empty run crossover must be 0 (length of stats)")
	}
}

func TestFigure2SweepAndRender(t *testing.T) {
	runs, err := Figure2On(engine.NewPool(1), []int{60}, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 { // one size × two bands
		t.Fatalf("got %d runs", len(runs))
	}
	var sb strings.Builder
	if err := RenderFigure2(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 2", "R1", "R5", "sleeping:", "30%", "70%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q", want)
		}
	}
}

func TestFigure3AndTable2Render(t *testing.T) {
	runs, err := Figure2On(engine.NewPool(1), []int{60}, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderFigure3(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "crossover at interval") {
		t.Error("Figure 3 output missing crossover annotation")
	}
	sb.Reset()
	if err := RenderTable2(&sb, runs); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Average ratio", "Std deviation", "60"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestRenderTable1MatchesPaper(t *testing.T) {
	var sb strings.Builder
	if err := RenderTable1(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Spot values from the paper's Table 1.
	for _, want := range []string{"186", "225", "424", "675", "5534", "8163", "2000", "2006"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderHomogeneous(t *testing.T) {
	var sb strings.Builder
	if err := RenderHomogeneous(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2.25") {
		t.Error("homogeneous output must contain the paper's 2.25 ratio")
	}
}

func TestEnergySavings(t *testing.T) {
	rows, err := EnergySavingsSweepOn(engine.NewPool(1), []int{100}, []workload.Band{workload.LowLoad()}, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Ratio <= 1 {
		t.Errorf("energy-aware must beat always-on at 30%% load, ratio %v", r.Ratio)
	}
	var sb strings.Builder
	if err := RenderEnergySavings(&sb, []EnergySavings{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E_ref/E_opt") {
		t.Error("energy table missing header")
	}
}

func TestSleepAblation(t *testing.T) {
	rows, err := RunSleepAblation(100, workload.LowLoad(), 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d policies", len(rows))
	}
	var never, c6 float64
	for _, r := range rows {
		switch r.Policy.String() {
		case "never":
			never = r.Energy
			if r.Sleeping != 0 {
				t.Error("never policy must not sleep")
			}
		case "c6-only":
			c6 = r.Energy
		}
	}
	if c6 >= never {
		t.Errorf("C6 sleeping (%v) must use less energy than always-on (%v)", c6, never)
	}
	var sb strings.Builder
	if err := RenderSleepAblation(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "60% rule") {
		t.Error("ablation table missing title")
	}
}

func TestDeltaAblation(t *testing.T) {
	rows, err := RunDeltaAblation(100, workload.LowLoad(), 7, 20, 0.65, []float64{0.0325, 0.13})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var sb strings.Builder
	if err := RenderDeltaAblation(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "delta") {
		t.Error("delta table missing header")
	}
}

func TestConsolidationAblation(t *testing.T) {
	var sb strings.Builder
	if err := ConsolidationAblation(&sb, 200, 7, 30); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "conservative") || !strings.Contains(out, "default") {
		t.Errorf("consolidation ablation output incomplete:\n%s", out)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	names := Names()
	want := []string{
		"ablation-consolidation", "ablation-delta", "ablation-sleep",
		"dvfs", "energy", "figure1", "figure2", "figure3", "homogeneous",
		"policies", "robustness", "smallclusters", "table1", "table2",
	}
	if len(names) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(names), len(want), names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := Run("nope", &sb, testOptions()); err == nil {
		t.Error("unknown experiment must error")
	}
}

// TestRunRejectsNonPositiveIntervals pins that Run, whichever runner it
// names, and RunAll refuse an interval count below one before writing
// anything.
func TestRunRejectsNonPositiveIntervals(t *testing.T) {
	for _, intervals := range []int{0, -1} {
		opt := testOptions()
		opt.Intervals = intervals
		for _, name := range []string{"table1", "table2", "ablation-delta"} {
			var sb strings.Builder
			if err := Run(name, &sb, opt); err == nil {
				t.Errorf("Run(%q) with %d intervals must error", name, intervals)
			}
			if sb.Len() != 0 {
				t.Errorf("Run(%q) with %d intervals wrote %d bytes", name, intervals, sb.Len())
			}
		}
		var sb strings.Builder
		if err := RunAll(&sb, opt); err == nil {
			t.Errorf("RunAll with %d intervals must error", intervals)
		}
		if sb.Len() != 0 {
			t.Errorf("RunAll with %d intervals wrote %d bytes", intervals, sb.Len())
		}
	}
}

func TestRobustness(t *testing.T) {
	r, err := RunRobustnessOn(engine.NewPool(1), 60, workload.LowLoad(), []uint64{1, 2, 3}, 15)
	if err != nil {
		t.Fatal(err)
	}
	if r.Agg.Runs != 3 || len(r.Agg.Mean) != 15 {
		t.Fatalf("aggregate = runs %d, %d intervals", r.Agg.Runs, len(r.Agg.Mean))
	}
	if len(r.Crossover) != 3 || len(r.Sleeping) != 3 {
		t.Fatal("per-seed slices wrong length")
	}
	// Every seed must sleep servers at 30% load.
	for i, s := range r.Sleeping {
		if s == 0 {
			t.Errorf("seed %d slept no servers at 30%% load", r.Seeds[i])
		}
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Crossover interval") {
		t.Error("robustness output missing table")
	}
	if _, err := RunRobustnessOn(engine.NewPool(1), 60, workload.LowLoad(), nil, 5); err == nil {
		t.Error("no seeds must error")
	}
}

func TestWriteRatioCSV(t *testing.T) {
	run, err := engine.RunCluster(context.Background(), 40, workload.LowLoad(), 3, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteRatioCSV(&sb, run); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 6 { // header + 5 intervals
		t.Errorf("CSV has %d lines, want 6", len(lines))
	}
	if !strings.HasPrefix(lines[0], "interval,ratio") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

func TestDVFSStudy(t *testing.T) {
	rows, err := RunDVFSStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	// At full demand the nominal state must be chosen (no saving);
	// at low demand a deep P-state saves power.
	last := rows[len(rows)-1]
	if last.State != "P0" || last.Saving != 0 {
		t.Errorf("full-demand row = %+v, want P0 with zero saving", last)
	}
	first := rows[0]
	if first.State == "P0" || first.Saving <= 0 {
		t.Errorf("low-demand row = %+v, want deep P-state with positive saving", first)
	}
	// The diminishing-returns claim of [14]: DVFS cannot touch the idle
	// floor, so even the best-case saving stays modest — far below the
	// ~85-98% a sleep state reclaims on an idle server.
	for i, r := range rows {
		if r.Saving < 0 || r.Saving > 0.30 {
			t.Errorf("row %d saving %v outside the plausible DVFS envelope", i, r.Saving)
		}
		// The chosen state always covers the demand (QoS safety).
		if r.Power <= 0 {
			t.Errorf("row %d power %v", i, r.Power)
		}
	}
	var sb strings.Builder
	if err := Run("dvfs", &sb, testOptions()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P-state") {
		t.Error("DVFS table missing")
	}
}

func TestRenderFigure1(t *testing.T) {
	b := server.Boundaries{SoptLow: 0.225, OptLow: 0.35, OptHigh: 0.675, SoptHigh: 0.825}
	m, err := server.NewLinearPower(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderFigure1(&sb, b, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 1", "*", "1", "2", "3", "4", "idle floor"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 output missing %q", want)
		}
	}
	// The idle floor: the curve must note b=0.50 at a=0 for the 50%-idle
	// model.
	if !strings.Contains(out, "b=0.50") {
		t.Errorf("Figure 1 must report the 0.50 idle floor:\n%s", out)
	}
	// Error paths.
	if err := RenderFigure1(&sb, server.Boundaries{SoptLow: 0.9}, m); err == nil {
		t.Error("invalid boundaries must error")
	}
	if err := RenderFigure1(&sb, b, nil); err == nil {
		t.Error("nil model must error")
	}
}

func TestRunFastExperiments(t *testing.T) {
	// The cheap experiments run end-to-end through the registry.
	for _, name := range []string{"table1", "homogeneous", "dvfs", "figure1"} {
		var sb strings.Builder
		if err := Run(name, &sb, testOptions()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s produced no output", name)
		}
	}
}

func TestSmallest(t *testing.T) {
	if smallest([]int{100, 1000, 10000}, 1000) != 1000 {
		t.Error("smallest wrong")
	}
	if smallest([]int{5000, 10000}, 1000) != 1000 {
		t.Error("fallback wrong")
	}
	if smallest([]int{60, 200}, 1000) != 200 {
		t.Error("largest-under-cap wrong")
	}
}
