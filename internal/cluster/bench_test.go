package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ealb/internal/trace"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// BenchmarkClusterIntervals measures the steady-state cost of one
// reallocation interval at the paper's three cluster scales — the
// simulator's hot path. Construction happens outside the timer; the
// allocs/op column is the headline number of the leader-state refactor
// (see EXPERIMENTS.md for the before/after trajectory).
func BenchmarkClusterIntervals(b *testing.B) {
	for _, size := range []int{100, 1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			if size >= 1000000 && testing.Short() {
				// The 10⁶ showcase builds a multi-GB fleet; CI's smoke run
				// (-short) stops at 10⁵.
				b.Skip("skipping 10⁶-server showcase in short mode")
			}
			c, err := New(DefaultConfig(size, workload.LowLoad(), 1))
			if err != nil {
				b.Fatal(err)
			}
			// Warm up past the initial rebalancing storm so the measured
			// intervals reflect steady state, not the one-off start-up
			// consolidation wave.
			if _, err := c.RunIntervals(context.Background(), 5); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunIntervals(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterIntervalsTraced is BenchmarkClusterIntervals with an
// aggregating tracer attached — the enabled-tracing column of
// EXPERIMENTS.md's overhead panel. The delta against the nil-tracer
// numbers is the full price of phase timing plus per-decision event
// delivery.
func BenchmarkClusterIntervalsTraced(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			cfg := DefaultConfig(size, workload.LowLoad(), 1)
			cfg.Tracer = trace.NewRecorder()
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.RunIntervals(context.Background(), 5); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunIntervals(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterIntervalsChurn measures the steady-state interval cost
// with the stochastic failure–repair process enabled. At 10² and 10³
// servers it runs MTBF 20τ, MTTR 5τ — failures nearly every interval;
// the delta against BenchmarkClusterIntervals is the price of churn:
// deadline scans plus the orphan re-placement migrations failures
// trigger. The 10⁵ shape uses the perfbench cluster-100k rates (MTBF
// 14400 s, MTTR 300 s), so `go test -bench` reproduces that workload's
// interval without the benchmark module.
func BenchmarkClusterIntervalsChurn(b *testing.B) {
	const tau = 60 // DefaultConfig's τ
	for _, shape := range []struct {
		size       int
		mtbf, mttr units.Seconds
	}{
		{100, 20 * tau, 5 * tau},
		{1000, 20 * tau, 5 * tau},
		{100000, 14400, 300},
	} {
		b.Run(fmt.Sprintf("size=%d", shape.size), func(b *testing.B) {
			cfg := DefaultConfig(shape.size, workload.LowLoad(), 1)
			cfg.MTBF = shape.mtbf
			cfg.MTTR = shape.mttr
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.RunIntervals(context.Background(), 5); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunIntervals(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterConstruction measures building and populating clusters
// from scratch — the per-cell cost a sweep pays without the engine's
// arena reuse. Its heap-B/server metric is the live heap one built
// cluster holds, per server: the set-up footprint behind perfbench's
// cluster-100k setup_rss_mb, without the benchmark module.
func BenchmarkClusterConstruction(b *testing.B) {
	for _, size := range []int{100, 1000, 100000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			cfg := DefaultConfig(size, workload.LowLoad(), 1)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			var c *Cluster
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = New(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(c)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(size), "heap-B/server")
		})
	}
}

// BenchmarkClusterRebuild measures re-seeding a cluster in place — the
// per-cell cost a sweep pays with arena reuse. Compare against
// BenchmarkClusterConstruction at the same size.
func BenchmarkClusterRebuild(b *testing.B) {
	for _, size := range []int{100, 1000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			cfg := DefaultConfig(size, workload.LowLoad(), 1)
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate seeds so every rebuild re-derives all streams
				// rather than hitting any same-seed fast path.
				cfg.Seed = uint64(1 + i%2)
				if err := c.Rebuild(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
