// Package farm simulates the paper's full cloud ecosystem: a farm of
// independent clusters, each run by its own leader (§4), behind a
// front-end dispatcher that directs newly arriving applications to a
// cluster by a pluggable policy.
//
// The per-cluster protocol is untouched — every cluster is an ordinary
// cluster.Cluster with its own leader state, random streams, and energy
// account, seeded deterministically from the farm seed. What the farm
// adds is the hierarchy above it:
//
//   - an arrival process: a Poisson stream of new applications per
//     reallocation interval, generated by the front-end's own random
//     stream so cluster streams never depend on farm-level decisions;
//   - a dispatcher: round-robin, least-loaded, or most-energy-headroom
//     routing of each arrival to a cluster, which admits it through
//     cluster.Admit (the leader's bounded candidate placement);
//   - farm-level statistics: per-interval aggregates (total power,
//     sleep counts, SLA-style overload fraction) over the per-cluster
//     IntervalStats.
//
// Determinism contract: one farm interval is a sequential dispatch
// phase (the front-end is a single dispatcher; arrivals are routed in
// order) followed by an advance phase in which every cluster runs one
// reallocation interval. Clusters share no mutable state, so the
// advance phase may run on a worker pool: each cluster writes only its
// own statistics slot, and a farm advanced in parallel is byte-identical
// to the same farm advanced serially. The engine exploits this by
// running an untraced farm's clusters on its existing pool; a traced
// farm advances serially so its shared trace stream has one order.
package farm

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ealb/internal/cluster"
	"ealb/internal/trace"
	"ealb/internal/units"
	"ealb/internal/workload"
	"ealb/internal/xrand"
)

// DispatchPolicy selects how the front-end routes a new application to a
// cluster.
type DispatchPolicy int

// Dispatch policies.
const (
	// DispatchRoundRobin cycles through the clusters in index order —
	// the oblivious baseline.
	DispatchRoundRobin DispatchPolicy = iota
	// DispatchLeastLoaded routes to the cluster with the lowest mean
	// load (total hosted demand over total capacity, sleepers included).
	DispatchLeastLoaded
	// DispatchEnergyHeadroom routes to the cluster whose awake servers
	// have the most capacity left below their optimal-region ceiling —
	// the placement least likely to force a wake-up or an overload, so
	// the cheapest in energy terms.
	DispatchEnergyHeadroom
)

// String implements fmt.Stringer.
func (p DispatchPolicy) String() string {
	switch p {
	case DispatchRoundRobin:
		return "round-robin"
	case DispatchLeastLoaded:
		return "least-loaded"
	case DispatchEnergyHeadroom:
		return "energy-headroom"
	default:
		return fmt.Sprintf("DispatchPolicy(%d)", int(p))
	}
}

// ParseDispatch converts a policy name ("round-robin", "least-loaded",
// "energy-headroom") into a DispatchPolicy.
func ParseDispatch(spec string) (DispatchPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "round-robin", "rr":
		return DispatchRoundRobin, nil
	case "least-loaded", "least-load":
		return DispatchLeastLoaded, nil
	case "energy-headroom", "headroom":
		return DispatchEnergyHeadroom, nil
	}
	return 0, fmt.Errorf(`farm: invalid dispatch policy %q (want "round-robin", "least-loaded" or "energy-headroom")`, spec)
}

// DispatchPolicies lists every policy name ParseDispatch accepts, in
// canonical form.
func DispatchPolicies() []string {
	return []string{"round-robin", "least-loaded", "energy-headroom"}
}

// Config parameterizes a farm simulation. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// Clusters is the number of independent clusters behind the
	// front-end.
	Clusters int
	// Seed drives the whole farm: the front-end's arrival stream and
	// every per-cluster seed derive from it.
	Seed uint64
	// Dispatch selects the front-end routing policy.
	Dispatch DispatchPolicy
	// ArrivalRate is the mean number of newly arriving applications per
	// reallocation interval, farm-wide (Poisson). Zero runs a closed
	// farm with no arrivals.
	ArrivalRate float64
	// Cluster is the per-cluster template. Its Seed and OnInterval
	// fields are overridden: each cluster receives a seed derived from
	// the farm seed, and per-interval observation happens at farm level.
	Cluster cluster.Config
	// OnInterval, when non-nil, is invoked synchronously with the
	// statistics of every completed farm interval (the engine wires it
	// to the scenario service's live interval tail). It must not mutate
	// the farm.
	OnInterval func(IntervalStats)
	// Tracer, when non-nil, receives the front-end's dispatch decisions
	// plus — wrapped with each cluster's index — every member cluster's
	// decision events and phase timings. Like cluster.Config.Tracer it
	// is strictly observational; the template's own Tracer field is
	// overridden per cluster. A traced farm advances its clusters
	// serially, so the events arrive in one order on every run: each
	// interval's dispatch decisions, then every cluster's events in
	// cluster order.
	Tracer trace.Tracer
}

// DefaultArrivalRate returns the default open-workload intensity for a
// farm of the given shape: one arrival per interval per hundred servers,
// which grows total load by a few percent over a 40-interval run —
// enough to exercise the dispatcher without swamping consolidation.
func DefaultArrivalRate(clusters, size int) float64 {
	return float64(clusters*size) / 100
}

// DefaultConfig returns the §5 experiment parameterization federated
// across the given number of clusters of the given per-cluster size.
func DefaultConfig(clusters, size int, band workload.Band, seed uint64) Config {
	return Config{
		Clusters:    clusters,
		Seed:        seed,
		Dispatch:    DispatchRoundRobin,
		ArrivalRate: DefaultArrivalRate(clusters, size),
		Cluster:     cluster.DefaultConfig(size, band, seed),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("farm: cluster count %d must be at least 1", c.Clusters)
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("farm: negative arrival rate %v", c.ArrivalRate)
	}
	if math.IsNaN(c.ArrivalRate) || math.IsInf(c.ArrivalRate, 0) {
		return fmt.Errorf("farm: non-finite arrival rate %v", c.ArrivalRate)
	}
	switch c.Dispatch {
	case DispatchRoundRobin, DispatchLeastLoaded, DispatchEnergyHeadroom:
	default:
		return fmt.Errorf("farm: unknown dispatch policy %d", int(c.Dispatch))
	}
	return c.Cluster.Validate()
}

// IntervalStats summarizes one completed farm interval: the per-cluster
// statistics plus their farm-level aggregates.
type IntervalStats struct {
	Index   int           `json:"index"`
	EndTime units.Seconds `json:"end_time"`
	// Clusters holds every cluster's own interval statistics, indexed by
	// cluster.
	Clusters []cluster.IntervalStats `json:"clusters"`
	// Regimes sums the per-cluster awake regime counts (index 0 = R1).
	Regimes [5]int `json:"regimes"`
	// Sleeping and Woken are farm totals for this interval.
	Sleeping int `json:"sleeping"`
	Woken    int `json:"woken"`
	// Migrations counts VM moves across all clusters this interval
	// (migrations never cross cluster boundaries).
	Migrations int `json:"migrations"`
	// SLAViolations counts servers farm-wide whose raw demand exceeded
	// capacity; OverloadFraction is that count over the farm's total
	// server count — the SLA-style health number of the federated panels.
	SLAViolations    int     `json:"sla_violations"`
	OverloadFraction float64 `json:"overload_fraction"`
	// MeanLoad is the mean per-cluster load (clusters are equally
	// sized, so this is also the farm-wide load fraction).
	MeanLoad units.Fraction `json:"mean_load"`
	// IntervalEnergy is the energy all clusters spent this interval;
	// TotalPower is that energy over the reallocation interval length —
	// the farm's mean power draw.
	IntervalEnergy units.Joules `json:"interval_energy"`
	TotalPower     units.Watts  `json:"total_power"`
	// Dispatched and Rejected count this interval's arrivals the
	// front-end placed and failed to place.
	Dispatched int `json:"dispatched"`
	Rejected   int `json:"rejected"`
	// Resilience aggregates: farm-wide sums of the per-cluster churn
	// fields. All omit when zero so churn-free farms keep their
	// historical JSON encoding (the federated golden digests pin it).
	Failures     int `json:"failures,omitempty"`
	Repairs      int `json:"repairs,omitempty"`
	AppsReplaced int `json:"apps_replaced,omitempty"`
	AppsLost     int `json:"apps_lost,omitempty"`
	FailedCount  int `json:"failed,omitempty"`
	// Availability is the farm-wide live-server fraction at the end of
	// the interval; like the cluster field it is reported only for
	// churned runs (cfg.Cluster.MTBF > 0), and the pointer emits an
	// all-down 0 rather than omitting it.
	Availability *float64 `json:"availability,omitempty"`
}

// Runner executes n independent jobs, possibly concurrently; fn(i) must
// be called exactly once for every i in [0,n). engine.Pool satisfies it.
// A nil Runner runs the jobs serially — byte-identical results either
// way, because farm jobs share no mutable state.
type Runner interface {
	Map(ctx context.Context, n int, fn func(i int) error) error
}

// Farm is a federated simulation: independent clusters behind a
// front-end dispatcher. Its storage — the clusters themselves and every
// scratch buffer — persists across Rebuilds, so a sweep worker reuses
// one Farm's allocations (including each cluster's arenas) for every
// farm cell it simulates.
type Farm struct {
	cfg      Config
	clusters []*cluster.Cluster
	front    *xrand.Rand // arrival + demand stream of the front-end
	rr       int         // round-robin cursor
	interval int

	// Per-interval scratch, cluster-indexed.
	stats    []cluster.IntervalStats
	loads    []float64 // projected mean load during the dispatch phase
	headroom []float64 // projected awake optimal headroom (fraction of capacity)
}

// New builds and populates a farm: every cluster constructed from the
// template with its own derived seed.
func New(cfg Config) (*Farm, error) {
	f := &Farm{}
	if err := f.Rebuild(cfg); err != nil {
		return nil, err
	}
	return f, nil
}

// Rebuild re-seeds the farm in place for cfg, producing a state
// bit-identical to New(cfg) while reusing the receiver's allocations:
// existing clusters are Rebuilt rather than reconstructed (the arena
// path), extra clusters are dropped, and missing ones are built fresh.
// Like cluster.Rebuild, it invalidates everything previously reachable
// from the farm.
func (f *Farm) Rebuild(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	root := xrand.New(cfg.Seed)
	f.front = root.Split()
	f.cfg = cfg
	f.rr = 0
	f.interval = 0
	if len(f.clusters) > cfg.Clusters {
		for i := cfg.Clusters; i < len(f.clusters); i++ {
			f.clusters[i] = nil
		}
		f.clusters = f.clusters[:cfg.Clusters]
	}
	for i := 0; i < cfg.Clusters; i++ {
		ccfg := cfg.Cluster
		// Every cluster's seed comes from the farm root in index order,
		// so cluster i's whole simulation depends only on (farm seed, i).
		ccfg.Seed = root.Uint64()
		ccfg.OnInterval = nil
		ccfg.Tracer = trace.WithCluster(cfg.Tracer, i)
		if i < len(f.clusters) {
			if err := f.clusters[i].Rebuild(ccfg); err != nil {
				return err
			}
			continue
		}
		c, err := cluster.New(ccfg)
		if err != nil {
			return err
		}
		f.clusters = append(f.clusters, c)
	}
	f.stats = resize(f.stats, cfg.Clusters)
	f.loads = resize(f.loads, cfg.Clusters)
	f.headroom = resize(f.headroom, cfg.Clusters)
	return nil
}

// resize returns s with length n, preserving capacity where possible.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Clusters returns the farm members (shared, not a copy; callers must
// not mutate).
func (f *Farm) Clusters() []*cluster.Cluster { return f.clusters }

// Config returns the farm's configuration.
func (f *Farm) Config() Config { return f.cfg }

// Interval returns how many farm intervals have completed.
func (f *Farm) Interval() int { return f.interval }

// TotalEnergy returns the farm-wide energy account.
func (f *Farm) TotalEnergy() units.Joules {
	var e units.Joules
	for _, c := range f.clusters {
		e += c.TotalEnergy()
	}
	return e
}

// awakeHeadroom returns the capacity a cluster's awake, healthy servers
// have left below their optimal-region ceilings, as a fraction of the
// cluster's total capacity — the demand it can absorb without waking
// anyone or pushing a host past R3.
func awakeHeadroom(c *cluster.Cluster) float64 {
	// The per-server sum lives in the cluster, which reads its incremental
	// index columns (O(changed) flush) instead of walking the servers.
	return c.AwakeHeadroom() / float64(len(c.Servers()))
}

// pick selects the target cluster for one arrival under the configured
// policy, against the dispatch phase's projected metrics.
func (f *Farm) pick() int {
	switch f.cfg.Dispatch {
	case DispatchLeastLoaded:
		best := 0
		for i := 1; i < len(f.clusters); i++ {
			if f.loads[i] < f.loads[best] {
				best = i
			}
		}
		return best
	case DispatchEnergyHeadroom:
		best := 0
		for i := 1; i < len(f.clusters); i++ {
			if f.headroom[i] > f.headroom[best] {
				best = i
			}
		}
		return best
	default: // round-robin
		i := f.rr % len(f.clusters)
		f.rr++
		return i
	}
}

// dispatch runs the front-end for one interval: draw the arrival count,
// route every arrival to a cluster, and let that cluster's leader admit
// it. Routing metrics are snapshotted once per interval and updated with
// each placement, so arrivals within an interval see the load their
// predecessors added. The phase is strictly sequential — the front-end
// is one dispatcher — which is what keeps cluster random streams
// independent of how the advance phase is parallelized.
//
//ealb:hotpath
func (f *Farm) dispatch() (dispatched, rejected int, err error) {
	if f.cfg.ArrivalRate <= 0 {
		return 0, 0, nil
	}
	n := f.front.Poisson(f.cfg.ArrivalRate)
	if n == 0 {
		return 0, 0, nil
	}
	perServer := 1 / float64(f.cfg.Cluster.Size)
	for i, c := range f.clusters {
		f.loads[i] = float64(c.ClusterLoad())
		f.headroom[i] = awakeHeadroom(c)
	}
	for k := 0; k < n; k++ {
		demand := units.Fraction(f.front.Uniform(cluster.AppSizeMin, cluster.AppSizeMax))
		ci := f.pick()
		sid, ok, err := f.clusters[ci].Admit(demand)
		if err != nil {
			return dispatched, rejected, err
		}
		if tr := f.cfg.Tracer; tr != nil {
			// Dispatch decisions belong to the interval being formed
			// (the advance phase that follows); the cluster's own admit
			// event carries the same coordinates via its wrapper.
			ev := trace.Event{Kind: trace.KindDispatch, Interval: f.interval + 1,
				Time: float64(f.clusters[ci].Now()), Cluster: ci,
				Src: -1, Dst: -1, App: -1, Demand: float64(demand), OK: ok}
			if ok {
				ev.Dst = int(sid)
			}
			tr.Event(ev)
		}
		if !ok {
			rejected++
			continue
		}
		dispatched++
		f.loads[ci] += float64(demand) * perServer
		f.headroom[ci] -= float64(demand) * perServer
	}
	return dispatched, rejected, nil
}

// RunIntervals advances the farm by n intervals and returns per-interval
// farm statistics. Each interval is a sequential dispatch phase followed
// by an advance phase executed on r — every cluster runs exactly one
// reallocation interval, in parallel when r is a worker pool, serially
// when r is nil or a Tracer is set, with byte-identical results either
// way.
//
// The context is checked between farm intervals and inside every
// cluster's interval; cancelling it stops the simulation at the next
// boundary and returns ctx.Err() with the statistics completed so far.
func (f *Farm) RunIntervals(ctx context.Context, n int, r Runner) ([]IntervalStats, error) {
	if n <= 0 {
		return nil, fmt.Errorf("farm: non-positive interval count %d", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]IntervalStats, 0, n)
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		dispatched, rejected, err := f.dispatch()
		if err != nil {
			return out, err
		}
		advance := func(i int) error {
			st, err := f.clusters[i].RunIntervals(ctx, 1)
			if err != nil {
				return fmt.Errorf("farm: cluster %d: %w", i, err)
			}
			f.stats[i] = st[0]
			return nil
		}
		// A traced farm advances serially so its shared event stream
		// comes out in cluster order, the same on every run.
		if r == nil || f.cfg.Tracer != nil {
			for i := range f.clusters {
				if err := advance(i); err != nil {
					return out, err
				}
			}
		} else if err := r.Map(ctx, len(f.clusters), advance); err != nil {
			return out, err
		}
		f.interval++
		st := f.aggregate(dispatched, rejected)
		out = append(out, st)
		if f.cfg.OnInterval != nil {
			f.cfg.OnInterval(st)
		}
	}
	return out, nil
}

// aggregate folds the advance phase's per-cluster statistics into one
// farm interval record.
//
//ealb:hotpath
func (f *Farm) aggregate(dispatched, rejected int) IntervalStats {
	st := IntervalStats{
		Index:   f.interval,
		EndTime: f.clusters[0].Now(),
		//ealb:allow-alloc the snapshot escapes into the returned record, so it cannot reuse scratch storage
		Clusters:   append([]cluster.IntervalStats(nil), f.stats...),
		Dispatched: dispatched,
		Rejected:   rejected,
	}
	var load float64
	for _, cs := range f.stats {
		for r, n := range cs.Regimes {
			st.Regimes[r] += n
		}
		st.Sleeping += cs.Sleeping
		st.Woken += cs.Woken
		st.Migrations += cs.Migrations
		st.SLAViolations += cs.SLAViolations
		st.IntervalEnergy += cs.IntervalEnergy
		st.Failures += cs.Failures
		st.Repairs += cs.Repairs
		st.AppsReplaced += cs.AppsReplaced
		st.AppsLost += cs.AppsLost
		st.FailedCount += cs.FailedCount
		load += float64(cs.ClusterLoad)
	}
	st.MeanLoad = units.Fraction(load / float64(len(f.stats)))
	total := f.cfg.Clusters * f.cfg.Cluster.Size
	st.OverloadFraction = float64(st.SLAViolations) / float64(total)
	if f.cfg.Cluster.MTBF > 0 {
		avail := float64(total-st.FailedCount) / float64(total)
		st.Availability = &avail
	}
	st.TotalPower = units.Watts(float64(st.IntervalEnergy) / float64(cluster.Tau))
	return st
}
