package engine

import (
	"context"
	"fmt"

	"ealb/internal/farm"
	"ealb/internal/workload"
)

// FarmRun is the raw outcome of one federated farm simulation — the
// measurements behind the farm panels (power, sleep counts, overload
// fraction versus dispatcher policy). Its JSON encoding is part of
// recorded results (engine.Result), so the tags are explicit and pinned
// to the historical field names.
type FarmRun struct {
	Clusters   int                  `json:"Clusters"`
	Size       int                  `json:"Size"` // servers per cluster
	Band       workload.Band        `json:"Band"`
	Dispatch   string               `json:"Dispatch"`
	Before     [5]int               `json:"Before"` // farm-wide regime distribution at t=0
	After      [5]int               `json:"After"`  // farm-wide regime distribution after the run (awake servers)
	Stats      []farm.IntervalStats `json:"Stats"`
	Sleeping   int                  `json:"Sleeping"`   // servers asleep at the end, farm-wide
	AvgAsleep  float64              `json:"AvgAsleep"`  // mean sleeping count across intervals
	Dispatched int                  `json:"Dispatched"` // arrivals placed by the front-end
	Rejected   int                  `json:"Rejected"`   // arrivals no cluster could admit
	Energy     float64              `json:"Energy"`     // total Joules, farm-wide
	Wakes      int                  `json:"Wakes"`
	Migrations int                  `json:"Migrations"`
	// Resilience measurements (all zero — availability 1 — for
	// churn-free runs): cumulative farm-wide failures/repairs, orphaned
	// applications re-placed and lost, and the mean live-server fraction
	// across intervals.
	Failures     int     `json:"Failures"`
	Repairs      int     `json:"Repairs"`
	AppsReplaced int     `json:"AppsReplaced"`
	AppsLost     int     `json:"AppsLost"`
	Availability float64 `json:"Availability"`
}

// farmRegimes sums the per-cluster awake regime counts.
func farmRegimes(f *farm.Farm) [5]int {
	var out [5]int
	for _, c := range f.Clusters() {
		rc := c.RegimeCounts()
		for i, n := range rc {
			out[i] += n
		}
	}
	return out
}

// measureFarm runs the experiment on an already-built (fresh or rebuilt)
// farm and collects the FarmRun measurements. The run totals fold from
// the interval records, which tally every interval since the build.
func measureFarm(ctx context.Context, f *farm.Farm, intervals int, r farm.Runner) (FarmRun, error) {
	cfg := f.Config()
	run := FarmRun{
		Clusters: cfg.Clusters,
		Size:     cfg.Cluster.Size,
		Band:     cfg.Cluster.InitialLoad,
		Dispatch: cfg.Dispatch.String(),
		Before:   farmRegimes(f),
	}
	st, err := f.RunIntervals(ctx, intervals, r)
	if err != nil {
		return FarmRun{}, err
	}
	run.Stats = st
	run.After = farmRegimes(f)
	run.Sleeping = st[len(st)-1].Sleeping
	run.Energy = float64(f.TotalEnergy())
	total := float64(cfg.Clusters * cfg.Cluster.Size)
	var asleep, avail float64
	for _, s := range st {
		asleep += float64(s.Sleeping)
		avail += 1 - float64(s.FailedCount)/total
		run.Dispatched += s.Dispatched
		run.Rejected += s.Rejected
		run.Wakes += s.Woken
		run.Migrations += s.Migrations
		run.Failures += s.Failures
		run.Repairs += s.Repairs
		run.AppsReplaced += s.AppsReplaced
		run.AppsLost += s.AppsLost
	}
	run.AvgAsleep = asleep / float64(len(st))
	run.Availability = avail / float64(len(st))
	return run, nil
}

// runFarmArena executes one farm job over the pool's farm arena: a
// worker that already simulated a farm cell rebuilds that cell's farm —
// including every per-cluster arena — in place for the next one.
// farm.Rebuild is bit-identical to farm.New by contract (the federated
// golden digest test pins it), so arena reuse cannot perturb results.
// The farm's clusters advance on r (the pool itself for a lone cell,
// nil — serial — when the cells already saturate the pool).
func (p *Pool) runFarmArena(ctx context.Context, cfg farm.Config, intervals int, r farm.Runner) (FarmRun, error) {
	f, _ := p.farms.Get().(*farm.Farm)
	if f == nil {
		var err error
		f, err = farm.New(cfg)
		if err != nil {
			return FarmRun{}, err
		}
	} else if err := f.Rebuild(cfg); err != nil {
		return FarmRun{}, err
	}
	defer p.farms.Put(f)
	return measureFarm(ctx, f, intervals, r)
}

// runFarmCells executes the pending farm cells of a sweep. A lone
// pending cell fans its clusters out across the pool per interval; more
// cells instead parallelize across cells (each cell advancing its
// clusters serially, which is byte-identical by the farm's determinism
// contract) — cells are independent and usually outnumber one farm's
// clusters, and a cell-level Map must not nest another Map inside it,
// which would deadlock a saturated pool.
func (p *Pool) runFarmCells(ctx context.Context, cells []Scenario, pending []int, results []Result, h RunHooks) error {
	runCell := func(ci int, r farm.Runner) error {
		cell := cells[ci]
		cfg, err := cell.farmSimConfig()
		if err != nil {
			return err
		}
		if h.Observe != nil {
			cfg.OnInterval = func(st farm.IntervalStats) { h.Observe(ci, st) }
		}
		if h.TracerFor != nil {
			cfg.Tracer = h.TracerFor(ci)
		}
		run, err := p.runFarmArena(ctx, cfg, cell.Intervals, r)
		if err != nil {
			return fmt.Errorf("engine: farm cell %d (clusters=%d size=%d dispatch=%s seed=%d): %w",
				ci, cfg.Clusters, cfg.Cluster.Size, cfg.Dispatch, cfg.Seed, err)
		}
		results[ci] = Result{Kind: cell.Kind, Scenario: cell, Farm: &run}
		p.addJoules(run.Energy)
		p.addIntervals(uint64(len(run.Stats) * cfg.Clusters))
		p.addResilience(run.Failures, run.AppsLost)
		if h.CellDone != nil {
			h.CellDone(ci, results[ci])
		}
		return nil
	}
	if len(pending) == 1 {
		return runCell(pending[0], p)
	}
	return p.Map(ctx, len(pending), func(i int) error { return runCell(pending[i], nil) })
}

// farmSimConfig derives the farm configuration of a normalized farm
// scenario.
func (s Scenario) farmSimConfig() (farm.Config, error) {
	band, err := ParseBand(s.Band)
	if err != nil {
		return farm.Config{}, err
	}
	sleep, err := ParseSleepPolicy(s.Sleep)
	if err != nil {
		return farm.Config{}, err
	}
	dispatch, err := farm.ParseDispatch(s.Dispatch)
	if err != nil {
		return farm.Config{}, err
	}
	cfg := farm.DefaultConfig(s.Clusters, s.Size, band, s.SeedValue())
	cfg.Dispatch = dispatch
	if s.ArrivalRate != nil {
		// An explicit 0 runs a closed farm; only an absent field keeps
		// the default open workload (Normalized records it).
		cfg.ArrivalRate = *s.ArrivalRate
	}
	cfg.Cluster.Sleep = sleep
	s.applyChurn(&cfg.Cluster)
	return cfg, nil
}
