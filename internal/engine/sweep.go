package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"ealb/internal/cluster"
	"ealb/internal/policy"
	"ealb/internal/trace"
	"ealb/internal/workload"
)

// MaxScenarioJobs bounds the total number of simulation jobs one sweep
// request may expand into (cells × per-cell jobs: a baseline comparison
// doubles a cluster cell, a policy cell runs the whole §3 line-up). The
// service executes arbitrary network requests, so one request must not
// buy an unbounded cross-product.
const MaxScenarioJobs = 4096

// SweepSpec is the v2 scenario request: every sweep axis of the paper's
// §5 panels may be a list, and the engine expands the cross-product into
// individual Scenario cells. The embedded Scenario carries the scalar
// form of each field, so a v1 single-run JSON body decodes unchanged — a
// scalar is simply a one-element axis. Giving both the scalar and the
// list form of the same axis is an error.
//
// Cluster axes: Seeds, Sizes, Bands, Sleeps, MTBFs, MTTRs. Farm axes:
// the cluster axes (sizing each member cluster) plus ClusterCounts and
// Dispatches. Policy axes: Seeds, Profiles, ServerCounts. Cells expand
// in one fixed order, the rightmost axis varying fastest: sizes → bands
// → sleeps → mtbfs → mttrs → cluster counts → dispatches → profiles →
// server counts → seeds → replications, where a kind skips the axes it
// does not read. Every cell records its fully normalized Scenario, so
// any cell can be re-run individually with a bit-identical result.
type SweepSpec struct {
	Scenario

	// Seeds is the seed axis. Replication r of seed s runs with seed
	// s + r, so `"seeds": [1], "replications": 3` sweeps seeds 1, 2, 3.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Cluster axes (shared with farm sweeps, which size each member
	// cluster with them).
	Sizes  []int    `json:"sizes,omitempty"`
	Bands  []string `json:"bands,omitempty"`
	Sleeps []string `json:"sleeps,omitempty"`

	// Churn axes (cluster and farm sweeps), in seconds — the
	// availability-under-failure panels sweep these. Entries of 0
	// disable churn for that cell.
	MTBFs []float64 `json:"mtbfs,omitempty"`
	MTTRs []float64 `json:"mttrs,omitempty"`

	// Farm axes.
	ClusterCounts []int    `json:"cluster_counts,omitempty"`
	Dispatches    []string `json:"dispatches,omitempty"`

	// Policy axes.
	Profiles     []string `json:"profiles,omitempty"`
	ServerCounts []int    `json:"server_counts,omitempty"`

	// Replications runs every seed-axis entry Replications times with
	// consecutive derived seeds (default 1). Aggregates are computed per
	// parameter combination across its seeds × replications.
	Replications int `json:"replications,omitempty"`
}

// SingleRun reports whether the spec is a plain v1 single-scenario
// request: no list axis and no replication fan-out.
func (sp SweepSpec) SingleRun() bool {
	return len(sp.Seeds) == 0 && len(sp.Sizes) == 0 && len(sp.Bands) == 0 &&
		len(sp.Sleeps) == 0 && len(sp.MTBFs) == 0 && len(sp.MTTRs) == 0 &&
		len(sp.ClusterCounts) == 0 && len(sp.Dispatches) == 0 &&
		len(sp.Profiles) == 0 && len(sp.ServerCounts) == 0 &&
		sp.Replications <= 1
}

// axisConflicts rejects specs that give both the scalar and the list
// form of one axis — the request would be ambiguous.
func (sp SweepSpec) axisConflicts() error {
	type conflict struct {
		scalar, list string
		both         bool
	}
	for _, c := range []conflict{
		{"seed", "seeds", sp.Scenario.Seed != nil && len(sp.Seeds) > 0},
		{"size", "sizes", sp.Scenario.Size != 0 && len(sp.Sizes) > 0},
		{"band", "bands", sp.Scenario.Band != "" && len(sp.Bands) > 0},
		{"sleep", "sleeps", sp.Scenario.Sleep != "" && len(sp.Sleeps) > 0},
		{"mtbf", "mtbfs", sp.Scenario.MTBF != nil && len(sp.MTBFs) > 0},
		{"mttr", "mttrs", sp.Scenario.MTTR != nil && len(sp.MTTRs) > 0},
		{"clusters", "cluster_counts", sp.Scenario.Clusters != 0 && len(sp.ClusterCounts) > 0},
		{"dispatch", "dispatches", sp.Scenario.Dispatch != "" && len(sp.Dispatches) > 0},
		{"profile", "profiles", sp.Scenario.Profile != "" && len(sp.Profiles) > 0},
		{"servers", "server_counts", sp.Scenario.Servers != 0 && len(sp.ServerCounts) > 0},
	} {
		if c.both {
			return fmt.Errorf("engine: sweep gives both %q and %q; use one", c.scalar, c.list)
		}
	}
	return nil
}

// ExpandedSweep is a validated sweep: the normalized spec plus its
// cross-product cells in deterministic order. Produced by
// SweepSpec.Expand and executed with (*Pool).RunExpandedHooked; the
// fields are unexported so the cells always match the spec.
type ExpandedSweep struct {
	spec  SweepSpec
	cells []Scenario
}

// Spec returns the normalized spec.
func (e ExpandedSweep) Spec() SweepSpec { return e.spec }

// Cells returns the expansion cells in order. The slice is shared;
// callers must not mutate it.
func (e ExpandedSweep) Cells() []Scenario { return e.cells }

// Expand validates the spec and expands its cross-product. Every cell
// is normalized and validated, and the total job count is capped by
// MaxScenarioJobs — checked arithmetically before anything is
// materialized, so a tiny request body cannot buy an enormous
// expansion.
func (sp SweepSpec) Expand() (ExpandedSweep, error) {
	fail := func(err error) (ExpandedSweep, error) { return ExpandedSweep{}, err }
	if err := sp.axisConflicts(); err != nil {
		return fail(err)
	}
	if sp.Kind == "" {
		sp.Kind = KindCluster
	}
	if sp.Replications == 0 {
		sp.Replications = 1
	}
	if sp.Replications < 0 {
		return fail(fmt.Errorf("engine: negative replications %d", sp.Replications))
	}

	// Promote scalars into one-element axes, rejecting axis lists that
	// do not belong to the scenario kind — silently dropping an explicit
	// axis would execute something the client did not ask for. An absent
	// cluster/policy scalar stays absent here and picks up its default
	// per cell via Scenario.Normalized, so a v1 body expands to exactly
	// its v1 cell.
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{sp.SeedValue()}
	}
	sp.Scenario.Seed = nil
	perCellJobs := 1
	switch sp.Kind {
	case KindCluster, KindFarm:
		if len(sp.Profiles) > 0 || len(sp.ServerCounts) > 0 {
			return fail(fmt.Errorf(`engine: "profiles"/"server_counts" are policy axes; this is a %q sweep`, sp.Kind))
		}
		promote(&sp.Sizes, &sp.Scenario.Size)
		promote(&sp.Bands, &sp.Scenario.Band)
		promote(&sp.Sleeps, &sp.Scenario.Sleep)
		if sp.Kind == KindFarm {
			promote(&sp.ClusterCounts, &sp.Scenario.Clusters)
			promote(&sp.Dispatches, &sp.Scenario.Dispatch)
		}
		if sp.CompareBaseline {
			// Farm cells reject the flag per cell in Validate.
			perCellJobs = 2
		}
	case KindPolicy:
		if len(sp.Sizes) > 0 || len(sp.Bands) > 0 || len(sp.Sleeps) > 0 || len(sp.MTBFs) > 0 || len(sp.MTTRs) > 0 {
			return fail(fmt.Errorf(`engine: "sizes"/"bands"/"sleeps"/"mtbfs"/"mttrs" are cluster axes; this is a %q sweep`, sp.Kind))
		}
		promote(&sp.Profiles, &sp.Scenario.Profile)
		promote(&sp.ServerCounts, &sp.Scenario.Servers)
		perCellJobs = len(policy.StandardSet(nil))
	default:
		return fail(fmt.Errorf("engine: unknown scenario kind %q (want %q, %q or %q)", sp.Kind, KindCluster, KindPolicy, KindFarm))
	}
	if sp.Kind != KindFarm && (len(sp.ClusterCounts) > 0 || len(sp.Dispatches) > 0) {
		return fail(fmt.Errorf(`engine: "cluster_counts"/"dispatches" are farm axes; this is a %q sweep`, sp.Kind))
	}

	// The job budget, checked by division before each multiplication so
	// an attacker-sized factor (e.g. replications near MaxInt64) cannot
	// overflow the product past the comparison.
	jobs := perCellJobs
	for _, factor := range []int{
		len(sp.Seeds), len(sp.Sizes), len(sp.Bands), len(sp.Sleeps),
		len(sp.MTBFs), len(sp.MTTRs),
		len(sp.ClusterCounts), len(sp.Dispatches),
		len(sp.Profiles), len(sp.ServerCounts), sp.Replications,
	} {
		if factor == 0 {
			continue
		}
		if factor > MaxScenarioJobs/jobs {
			return fail(fmt.Errorf("engine: sweep expands to more than %d jobs", MaxScenarioJobs))
		}
		jobs *= factor
	}

	// The cells are the cross product of the axes, applied in one fixed
	// order, the last varying fastest. The axes a kind does not read are
	// empty (refused above when given), and so are the churn lists when
	// absent: an empty list leaves the spec's scalar — possibly nil,
	// churn disabled — in every cell, so a pre-churn request body
	// expands to exactly its historical cells.
	cells := []Scenario{sp.Scenario}
	cells = cross(cells, sp.Sizes, func(c *Scenario, v int) { c.Size = v })
	cells = cross(cells, sp.Bands, func(c *Scenario, v string) { c.Band = v })
	cells = cross(cells, sp.Sleeps, func(c *Scenario, v string) { c.Sleep = v })
	cells = cross(cells, sp.MTBFs, func(c *Scenario, v float64) { c.MTBF = &v })
	cells = cross(cells, sp.MTTRs, func(c *Scenario, v float64) { c.MTTR = &v })
	cells = cross(cells, sp.ClusterCounts, func(c *Scenario, v int) { c.Clusters = v })
	cells = cross(cells, sp.Dispatches, func(c *Scenario, v string) { c.Dispatch = v })
	cells = cross(cells, sp.Profiles, func(c *Scenario, v string) { c.Profile = v })
	cells = cross(cells, sp.ServerCounts, func(c *Scenario, v int) { c.Servers = v })
	// Replication r of seed s runs with seed s + r, right after s.
	seeds := make([]uint64, 0, len(sp.Seeds)*sp.Replications)
	for _, s := range sp.Seeds {
		for r := 0; r < sp.Replications; r++ {
			seeds = append(seeds, s+uint64(r))
		}
	}
	cells = cross(cells, seeds, func(c *Scenario, v uint64) {
		c.Seed = SeedOf(v)
		// Every cell owns its rates: none aliases the spec's or another
		// cell's.
		for _, rate := range []**float64{&c.ArrivalRate, &c.MTBF, &c.MTTR} {
			if *rate != nil {
				*rate = RateOf(**rate)
			}
		}
	})
	for i := range cells {
		cells[i] = cells[i].Normalized()
		if err := cells[i].Validate(); err != nil {
			return fail(fmt.Errorf("sweep cell %d: %w", i, err))
		}
	}
	return ExpandedSweep{spec: sp, cells: cells}, nil
}

// promote turns an absent list axis into the one-element axis of its
// scalar and clears the scalar, so the cells take the value from the
// list.
func promote[T any](list *[]T, scalar *T) {
	if len(*list) == 0 {
		*list = []T{*scalar}
	}
	var zero T
	*scalar = zero
}

// cross applies one list axis to the cells built so far: every cell is
// copied once per value, in value order, and set applied to the copy.
// An empty list leaves the cells as they are, and a one-value list is
// set on them in place.
func cross[T any](cells []Scenario, vals []T, set func(*Scenario, T)) []Scenario {
	switch len(vals) {
	case 0:
		return cells
	case 1:
		for i := range cells {
			set(&cells[i], vals[0])
		}
		return cells
	}
	out := make([]Scenario, 0, len(cells)*len(vals))
	for _, c := range cells {
		for _, v := range vals {
			out = append(out, c)
			set(&out[len(out)-1], v)
		}
	}
	return out
}

// SweepResult is the outcome of a sweep: the normalized spec, every
// cell's result in expansion order, and per-parameter-combination
// aggregate statistics.
type SweepResult struct {
	Spec       SweepSpec   `json:"spec"`
	Cells      []Result    `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`
}

// RunSweep expands, validates and executes a sweep spec on the pool,
// blocking until every cell completes. Cell results are bit-identical to
// running each cell individually as a one-cell sweep: every cell derives
// its own random streams from its seed and lands in an order-preserving
// slot. Cancelling the context stops running simulations at their next
// interval and fails unstarted cells promptly.
func (p *Pool) RunSweep(ctx context.Context, spec SweepSpec) (SweepResult, error) {
	ex, err := spec.Expand()
	if err != nil {
		return SweepResult{}, err
	}
	return p.RunExpandedHooked(ctx, ex, RunHooks{})
}

// RunHooks customizes RunExpandedHooked. All cell indices refer to the
// expansion order of the full sweep, even when Completed skips cells.
// Every callback runs on worker goroutines, so it must be safe for
// concurrent use.
type RunHooks struct {
	// Observe, when non-nil, receives every completed interval of every
	// cluster or farm cell — a cluster.IntervalStats or farm.IntervalStats
	// value, matching the sweep kind — identified by the cell's expansion
	// index, while the sweep is still running. Baseline comparison runs
	// are not observed.
	Observe func(cell int, st any)
	// TracerFor, when non-nil, is consulted once per cluster or farm cell
	// and may return a per-cell tracer — nil to leave that cell untraced —
	// which receives the cell's decision events and phase timings while
	// it runs. Tracing is strictly observational: traced results are
	// byte-identical to untraced ones (the engine's trace invariance tests
	// pin this against the golden digests). Policy cells and
	// baseline-comparison runs are never traced.
	TracerFor func(cell int) trace.Tracer
	// CellDone, when non-nil, is called once per executed cell as soon as
	// the cell's Result is fully assembled — for cluster cells with a
	// baseline comparison, after both runs finish. It is called from the
	// worker goroutine that completed the cell's last job; completion
	// order across cells is nondeterministic (the Result values themselves
	// are not). Cells satisfied from Completed do not fire it.
	CellDone func(cell int, res Result)
	// Completed supplies checkpointed results by expansion index. Those
	// cells are not re-executed: their results are merged verbatim into
	// the SweepResult, and only the remaining cells run. Because every
	// cell derives all randomness from its own recorded seed, the merged
	// result is byte-identical to an uninterrupted run — the basis of the
	// service's crash/resume support.
	Completed map[int]Result
}

// RunExpandedHooked executes an already-expanded sweep — so callers that
// expanded the spec for validation (the HTTP service does, on submit)
// need not pay for a second expansion — with optional live observation,
// per-cell tracing, completion hooks and resumption from checkpointed
// cells. It is the engine's one sweep executor: RunSweep, the service
// and ealb-sim all end here.
//
// Cluster cells flatten into one pool-level job list (nesting Map calls
// would deadlock a saturated pool); policy cells flatten into one job
// per (cell, policy) pair; farm cells run one job each. Cells found in
// h.Completed fill their slots up front and are not run: the rest run
// by expansion index and write their results in place, so every hook
// sees expansion indices and aggregation (a pure function of the full
// cell slice) matches an uninterrupted run.
func (p *Pool) RunExpandedHooked(ctx context.Context, ex ExpandedSweep, h RunHooks) (SweepResult, error) {
	p.runsStarted.Add(1)
	results := make([]Result, len(ex.cells))
	pending := make([]int, 0, len(ex.cells))
	for ci := range ex.cells {
		if res, ok := h.Completed[ci]; ok {
			results[ci] = res
		} else {
			pending = append(pending, ci)
		}
	}
	var err error
	switch ex.spec.Kind {
	case KindCluster:
		err = p.runClusterCells(ctx, ex.cells, pending, results, h)
	case KindFarm:
		err = p.runFarmCells(ctx, ex.cells, pending, results, h)
	case KindPolicy:
		err = p.runPolicyCells(ctx, ex.cells, pending, results, h)
	}
	if err != nil {
		p.runsFailed.Add(1)
		return SweepResult{}, err
	}
	p.runsCompleted.Add(1)
	return SweepResult{Spec: ex.spec, Cells: results, Aggregates: Aggregates(results)}, nil
}

// runClusterCells flattens the pending cluster cells into one
// pool-level job list: each cell's main run, followed by its always-on
// baseline when the cell asks for a comparison. The baseline inherits
// the cell's churn so the savings comparison stays apples-to-apples
// under failures; only the main run is observed and traced.
func (p *Pool) runClusterCells(ctx context.Context, cells []Scenario, pending []int, results []Result, h RunHooks) error {
	type job struct {
		cell int
		cfg  cluster.Config
	}
	var jobs []job
	// A cell completes when its last job does — two jobs with a baseline
	// comparison, one otherwise. The worker that decrements a cell's
	// counter to zero assembles the cell's Result and fires CellDone; the
	// atomic decrement orders it after the other job's runs[] write.
	// A baseline runs as the job right after its cell's main run.
	mainJob := make([]int, len(cells))
	remaining := make([]atomic.Int32, len(cells))
	for _, ci := range pending {
		cell := cells[ci]
		band, err := ParseBand(cell.Band)
		if err != nil {
			return err
		}
		sleep, err := ParseSleepPolicy(cell.Sleep)
		if err != nil {
			return err
		}
		cfg := cluster.DefaultConfig(cell.Size, band, cell.SeedValue())
		cfg.Sleep = sleep
		cell.applyChurn(&cfg)
		base := cfg
		base.Sleep = cluster.SleepNever
		if h.Observe != nil {
			cfg.OnInterval = func(st cluster.IntervalStats) { h.Observe(ci, st) }
		}
		if h.TracerFor != nil {
			cfg.Tracer = h.TracerFor(ci)
		}
		mainJob[ci] = len(jobs)
		jobs = append(jobs, job{cell: ci, cfg: cfg})
		remaining[ci].Store(1)
		if cell.CompareBaseline {
			jobs = append(jobs, job{cell: ci, cfg: base})
			remaining[ci].Store(2)
		}
	}
	runs := make([]ClusterRun, len(jobs))
	return p.Map(ctx, len(jobs), func(ji int) error {
		j := &jobs[ji]
		run, err := p.runClusterArena(ctx, j.cfg, cells[j.cell].Intervals)
		if err != nil {
			return fmt.Errorf("engine: sweep job %d (size=%d band=%v seed=%d): %w",
				ji, j.cfg.Size, j.cfg.InitialLoad, j.cfg.Seed, err)
		}
		runs[ji] = run
		p.addJoules(run.Energy)
		p.addIntervals(uint64(len(run.Stats)))
		p.addResilience(run.Failures, run.AppsLost)
		ci := j.cell
		if remaining[ci].Add(-1) != 0 {
			return nil
		}
		res := &results[ci]
		main := runs[mainJob[ci]]
		res.Kind = cells[ci].Kind
		res.Scenario = cells[ci]
		res.Cluster = &main
		if cells[ci].CompareBaseline {
			res.AlwaysOnJoules = runs[mainJob[ci]+1].Energy
			res.JoulesSaved = res.AlwaysOnJoules - main.Energy
			p.addSaved(res.JoulesSaved)
		}
		if h.CellDone != nil {
			h.CellDone(ci, *res)
		}
		return nil
	})
}

func (p *Pool) runPolicyCells(ctx context.Context, cells []Scenario, pending []int, results []Result, h RunHooks) error {
	type job struct {
		cell, pi int
	}
	var jobs []job
	pols := make([][]policy.Policy, len(cells))
	cfgs := make([]policy.FarmConfig, len(cells))
	rates := make([]workload.RateFunc, len(cells))
	remaining := make([]atomic.Int32, len(cells))
	for _, ci := range pending {
		cell := cells[ci]
		cfg := cell.farmConfig()
		rate, err := workload.Profile(cell.Profile, cell.BaseRate, cell.PeakRate, cfg.Horizon)
		if err != nil {
			return err
		}
		cfgs[ci], rates[ci] = cfg, rate
		pols[ci] = policy.StandardSetFor(rate)
		results[ci] = Result{Kind: cell.Kind, Scenario: cell, Policies: make([]policy.Result, len(pols[ci]))}
		for pi := range pols[ci] {
			jobs = append(jobs, job{cell: ci, pi: pi})
		}
		remaining[ci].Store(int32(len(pols[ci])))
	}
	return p.Map(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		r, err := policy.Simulate(ctx, cfgs[j.cell], pols[j.cell][j.pi], rates[j.cell])
		if err != nil {
			return fmt.Errorf("engine: sweep cell %d policy %q: %w", j.cell, pols[j.cell][j.pi].Name(), err)
		}
		results[j.cell].Policies[j.pi] = r
		p.addJoules(float64(r.Energy))
		if remaining[j.cell].Add(-1) == 0 && h.CellDone != nil {
			h.CellDone(j.cell, results[j.cell])
		}
		return nil
	})
}
