package engine

import (
	"context"

	"ealb/internal/cluster"
	"ealb/internal/stats"
	"ealb/internal/workload"
)

// ClusterRun is the raw outcome of one (size, band) cluster simulation —
// the measurements behind the paper's Figures 2-3 and Table 2. Its JSON
// encoding is part of recorded results (engine.Result), so the tags are
// explicit and pinned to the historical field names.
type ClusterRun struct {
	Size      int                     `json:"Size"`
	Band      workload.Band           `json:"Band"`
	Before    [5]int                  `json:"Before"` // regime distribution at t=0
	After     [5]int                  `json:"After"`  // regime distribution after the run (awake servers)
	Stats     []cluster.IntervalStats `json:"Stats"`
	Sleeping  int                     `json:"Sleeping"`  // servers asleep at the end
	AvgAsleep float64                 `json:"AvgAsleep"` // mean sleeping count across intervals
	MeanRatio float64                 `json:"MeanRatio"` // Table 2 "Average ratio"
	StdRatio  float64                 `json:"StdRatio"`  // Table 2 "Standard deviation"
	Energy    float64                 `json:"Energy"`    // total Joules
	Wakes     int                     `json:"Wakes"`
	// Resilience measurements (all zero — availability 1 — for
	// churn-free runs): cumulative failures/repairs, orphaned
	// applications re-placed and lost, and the mean live-server fraction
	// across intervals.
	Failures     int     `json:"Failures"`
	Repairs      int     `json:"Repairs"`
	AppsReplaced int     `json:"AppsReplaced"`
	AppsLost     int     `json:"AppsLost"`
	Availability float64 `json:"Availability"`
}

// RunCluster executes the §5 experiment for one cluster size and load
// band. The simulation derives every random stream from seed, so the
// result is identical no matter which worker (or how many) runs it.
// Cancelling the context stops the simulation at the next reallocation
// interval and returns ctx.Err().
func RunCluster(ctx context.Context, size int, band workload.Band, seed uint64, intervals int, mutate func(*cluster.Config)) (ClusterRun, error) {
	cfg := cluster.DefaultConfig(size, band, seed)
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return ClusterRun{}, err
	}
	return measureCluster(ctx, c, size, band, intervals)
}

// measureCluster runs the experiment on an already-built (fresh or
// rebuilt) cluster and collects the ClusterRun measurements. The run
// totals fold from the interval records, which tally every interval
// since the build.
func measureCluster(ctx context.Context, c *cluster.Cluster, size int, band workload.Band, intervals int) (ClusterRun, error) {
	run := ClusterRun{Size: size, Band: band, Before: c.RegimeCounts()}
	st, err := c.RunIntervals(ctx, intervals)
	if err != nil {
		return ClusterRun{}, err
	}
	run.Stats = st
	run.After = c.RegimeCounts()
	run.Sleeping = c.SleepingCount()
	run.Energy = float64(c.TotalEnergy())
	var asleep, avail float64
	for _, s := range st {
		asleep += float64(s.Sleeping)
		avail += 1 - float64(s.FailedCount)/float64(size)
		run.Wakes += s.Woken
		run.Failures += s.Failures
		run.Repairs += s.Repairs
		run.AppsReplaced += s.AppsReplaced
		run.AppsLost += s.AppsLost
	}
	run.AvgAsleep = asleep / float64(len(st))
	run.Availability = avail / float64(len(st))
	ratios := run.Ratios()
	run.MeanRatio = stats.Mean(ratios)
	run.StdRatio = stats.SampleStdDev(ratios)
	return run, nil
}

// runClusterArena executes one cluster job over the pool's cluster arena:
// a worker that already simulated a cell rebuilds that cell's cluster in
// place for the next one instead of reconstructing the object graph.
// cluster.Rebuild is bit-identical to cluster.New by contract (the golden
// digest test pins it), so arena reuse cannot perturb results.
func (p *Pool) runClusterArena(ctx context.Context, cfg cluster.Config, intervals int) (ClusterRun, error) {
	c, _ := p.arenas.Get().(*cluster.Cluster)
	if c == nil {
		var err error
		c, err = cluster.New(cfg)
		if err != nil {
			return ClusterRun{}, err
		}
	} else if err := c.Rebuild(cfg); err != nil {
		return ClusterRun{}, err
	}
	defer p.arenas.Put(c)
	return measureCluster(ctx, c, cfg.Size, cfg.InitialLoad, intervals)
}

// Ratios extracts the Figure 3 time series.
func (r ClusterRun) Ratios() []float64 {
	out := make([]float64, len(r.Stats))
	for i, s := range r.Stats {
		out[i] = s.Ratio
	}
	return out
}

// Crossover returns the first interval (1-based) from which the ratio
// stays below 1 for five consecutive intervals — the point where
// low-cost local decisions become durably dominant (§5). The window
// guards against declaring dominance while the series still hovers
// around 1. It returns the interval count when no such point exists.
func (r ClusterRun) Crossover() int {
	const window = 5
	for i := 0; i+window-1 < len(r.Stats); i++ {
		below := true
		for j := i; j < i+window; j++ {
			if r.Stats[j].Ratio >= 1 {
				below = false
				break
			}
		}
		if below {
			return i + 1
		}
	}
	return len(r.Stats)
}
