// Benchmarks regenerating each table and figure of the paper. One bench
// per artifact keeps the mapping explicit even where several artifacts
// share the same underlying sweep (Figures 2/3 and Table 2 are different
// views of one simulation).
//
// The per-iteration cluster size is 10^2-10^3 so `go test -bench=.`
// terminates quickly; the full 10^4 sweep is run via
// `cmd/ealb-experiments` (see EXPERIMENTS.md for its output).
package ealb

import (
	"context"
	"io"
	"testing"

	"ealb/internal/engine"
	"ealb/internal/experiments"
	"ealb/internal/policy"
	"ealb/internal/workload"
)

// benchOptions keeps registry-driven benches at laptop scale.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: experiments.DefaultSeed, Intervals: 40, Sizes: []int{100}}
}

func benchRun(b *testing.B, name string, sizes []int) {
	b.Helper()
	opt := benchOptions()
	opt.Sizes = sizes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (server power averages 2000-2006).
func BenchmarkTable1(b *testing.B) { benchRun(b, "table1", []int{100}) }

// BenchmarkHomogeneousModel regenerates the §4 worked example
// (E_ref/E_opt = 2.25) and its sweep.
func BenchmarkHomogeneousModel(b *testing.B) { benchRun(b, "homogeneous", []int{100}) }

// BenchmarkFigure2 regenerates the regime-distribution histograms
// (before/after balancing) at laptop scale.
func BenchmarkFigure2(b *testing.B) { benchRun(b, "figure2", []int{100}) }

// BenchmarkFigure3 regenerates the in-cluster/local ratio traces.
func BenchmarkFigure3(b *testing.B) { benchRun(b, "figure3", []int{100}) }

// BenchmarkTable2 regenerates the ratio-statistics table.
func BenchmarkTable2(b *testing.B) { benchRun(b, "table2", []int{100}) }

// BenchmarkSmallClusters regenerates the 20-80 server extension from
// [19].
func BenchmarkSmallClusters(b *testing.B) { benchRun(b, "smallclusters", []int{100}) }

// BenchmarkEnergySavings regenerates the measured E_ref/E_opt table.
func BenchmarkEnergySavings(b *testing.B) { benchRun(b, "energy", []int{100}) }

// BenchmarkPolicies regenerates the §3 policy comparison across the
// three workload shapes.
func BenchmarkPolicies(b *testing.B) {
	cfg := policy.DefaultFarmConfig()
	cfg.Horizon = 3600
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rate := workload.DiurnalRate(1000, 4000, cfg.Horizon)
		if _, err := policy.Compare(context.Background(), cfg, policy.StandardSet(rate), rate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSleep regenerates the sleep-state ablation (§6 rule
// vs fixed states).
func BenchmarkAblationSleep(b *testing.B) { benchRun(b, "ablation-sleep", []int{100}) }

// BenchmarkAblationDelta regenerates the optimal-region-width ablation.
func BenchmarkAblationDelta(b *testing.B) { benchRun(b, "ablation-delta", []int{100}) }

// BenchmarkAblationConsolidation regenerates the consolidation-rule
// ablation.
func BenchmarkAblationConsolidation(b *testing.B) {
	benchRun(b, "ablation-consolidation", []int{100})
}

// BenchmarkFigure1 regenerates the operating-regions illustration.
func BenchmarkFigure1(b *testing.B) { benchRun(b, "figure1", []int{100}) }

// BenchmarkDVFS regenerates the P-state selection study.
func BenchmarkDVFS(b *testing.B) { benchRun(b, "dvfs", []int{100}) }

// BenchmarkRobustness regenerates the five-seed aggregate at laptop scale.
func BenchmarkRobustness(b *testing.B) { benchRun(b, "robustness", []int{100}) }

// BenchmarkEngineSweep measures the figure2 panel sweep dispatched
// through the simulation engine, serial versus one-worker-per-CPU — the
// speedup tracked in the perf trajectory. Both paths produce
// bit-identical results (see engine's TestParallelSweepMatchesSerial);
// only the wall clock differs.
func BenchmarkEngineSweep(b *testing.B) {
	sizes := []int{100, 200, 400}
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := engine.NewPool(workers)
				if _, err := experiments.Figure2On(p, sizes, experiments.DefaultSeed, 20); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", bench(1))
	b.Run("parallel", bench(0))
}

// BenchmarkErlangC measures the farm QoS model's per-slot query.
func BenchmarkErlangC(b *testing.B) {
	q := policy.MMc{Lambda: 900, Mu: 10, C: 100}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := q.MeanResponse(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterInterval measures the cost of a single reallocation
// interval at the paper's mid cluster size — the simulator's hot path.
func BenchmarkClusterInterval(b *testing.B) {
	cfg := DefaultClusterConfig(1000, LowLoad(), 1)
	c, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunIntervals(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterConstruction measures building and populating a
// 1000-server cluster.
func BenchmarkClusterConstruction(b *testing.B) {
	cfg := DefaultClusterConfig(1000, LowLoad(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCluster(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
