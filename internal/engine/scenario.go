package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"ealb/internal/cluster"
	"ealb/internal/farm"
	"ealb/internal/policy"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// Default scenario parameters (the paper's §5 setup). The experiments
// package aliases these so the two layers cannot drift.
const (
	// DefaultSeed is the seed of all default runs (the paper's
	// publication year).
	DefaultSeed uint64 = 2014
	// DefaultIntervals is the experiment length from §5.
	DefaultIntervals = 40
	// DefaultMTTRSeconds is the mean repair time a churned scenario gets
	// when it sets mtbf but leaves mttr absent: five reallocation
	// intervals at the default τ = 60 s — long enough that a failure is
	// felt across several leader passes, short enough that the fleet
	// recovers within a standard 40-interval run.
	DefaultMTTRSeconds = 300.0
)

// Resource caps on a single scenario. The service executes arbitrary
// network requests, so one request must not be able to describe an
// unbounded simulation; the caps sit an order of magnitude above the
// paper's largest experiment (10^4 servers, 40 intervals).
const (
	// MaxScenarioSize bounds a cluster scenario's server count.
	MaxScenarioSize = 100_000
	// MaxScenarioIntervals bounds a cluster scenario's length.
	MaxScenarioIntervals = 10_000
	// MaxScenarioServers bounds a policy scenario's farm size.
	MaxScenarioServers = 100_000
	// MaxScenarioClusters bounds a farm scenario's cluster count (the
	// clusters × size product is additionally bounded by
	// MaxScenarioSize).
	MaxScenarioClusters = 1_000
	// MaxScenarioArrivalRate bounds a farm scenario's mean arrivals per
	// interval.
	MaxScenarioArrivalRate = 100_000
	// MaxScenarioHorizon bounds a policy scenario's simulated time —
	// thirty days at the default 10 s decision slot.
	MaxScenarioHorizon = units.Seconds(30 * 24 * 3600)
	// MaxScenarioRate bounds a policy scenario's base_rate and peak_rate,
	// in req/s: MaxScenarioServers at the farm's 100 req/s per server, so
	// past it every farm is saturated anyway.
	MaxScenarioRate = 10_000_000
)

// Scenario kinds.
const (
	// KindCluster runs the §4-§5 leader protocol on one cluster.
	KindCluster = "cluster"
	// KindPolicy runs the §3 capacity-management policy line-up on a
	// server farm driven by a named workload profile.
	KindPolicy = "policy"
	// KindFarm runs the federated ecosystem: a farm of independent
	// clusters behind a front-end dispatcher routing new arrivals.
	KindFarm = "farm"
)

// Scenario describes one simulation cell: the scalar form of the JSON
// body of `POST /v1/runs` on ealb-serve (a SweepSpec generalizes every
// axis to a list), so every field is a plain string or number; absent
// fields select the paper's defaults.
//
//ealb:digest
type Scenario struct {
	// Kind is "cluster" (default) or "policy".
	Kind string `json:"kind,omitempty"`

	// Seed drives every random stream of the run. A nil Seed selects the
	// default (2014); an explicit seed — including 0 — is used verbatim.
	// The pointer distinguishes "field absent" from "seed": 0, which a
	// plain integer cannot (seed 0 used to be silently rewritten to the
	// default). Build one with SeedOf.
	Seed *uint64 `json:"seed,omitempty"`

	// Cluster scenarios (§4-§5).
	//
	// Size is the server count (default 100). Band is "low" (20-40%),
	// "high" (60-80%), or an explicit "0.25-0.45". Intervals is the
	// number of reallocation intervals (default 40). Sleep selects the
	// consolidation sleep policy: "auto", "c3", "c6" or "never".
	Size      int    `json:"size,omitempty"`
	Band      string `json:"band,omitempty"`
	Intervals int    `json:"intervals,omitempty"`
	Sleep     string `json:"sleep,omitempty"`
	// CompareBaseline additionally runs the always-on baseline so the
	// result (and the engine's joules-saved counter) reports the
	// measured E_ref/E_opt savings.
	CompareBaseline bool `json:"compare_baseline,omitempty"`
	// Trace requests decision tracing for this cell (cluster and farm
	// scenarios). The engine itself attaches no tracer — the flag tells
	// the caller (ealb-serve) to create one and stream its events via
	// `GET /v1/runs/{id}/trace`. Tracing never changes results: the
	// traced run is byte-identical to the untraced one.
	Trace bool `json:"trace,omitempty"`

	// Farm scenarios (federated clusters behind a dispatcher). The
	// cluster fields above describe each member cluster (Size is servers
	// per cluster).
	//
	// Clusters is the cluster count (default 2). Dispatch selects the
	// front-end routing policy: "round-robin", "least-loaded" or
	// "energy-headroom". ArrivalRate is the mean number of new
	// applications arriving per interval farm-wide; an absent field
	// selects the default open workload (clusters × size / 100 per
	// interval) while an explicit 0 runs a closed farm — the pointer
	// distinguishes the two, like Seed. Build one with RateOf.
	Clusters    int      `json:"clusters,omitempty"`
	Dispatch    string   `json:"dispatch,omitempty"`
	ArrivalRate *float64 `json:"arrival_rate,omitempty"`

	// Churn (cluster and farm scenarios): MTBF and MTTR, in seconds,
	// drive the stochastic failure–repair process on every simulated
	// cluster — exponential time-to-failure per live server, exponential
	// time-to-repair per failed server. An absent or zero mtbf disables
	// churn; a positive mtbf with an absent mttr selects the default
	// repair time (DefaultMTTRSeconds); an mttr with churn disabled is
	// inert (the mtbf=0 baseline of an MTBF sweep carries the axis's
	// fixed mttr). The pointers distinguish absent fields from explicit
	// zeros, like Seed and ArrivalRate; build them with RateOf.
	MTBF *float64 `json:"mtbf,omitempty"`
	MTTR *float64 `json:"mttr,omitempty"`

	// Policy scenarios (§3).
	//
	// Profile names the arrival-rate profile (workload.ProfileNames:
	// constant, diurnal, trend, spike, burst; default "diurnal").
	// BaseRate/PeakRate shape it in req/s (defaults 1000/5000).
	// Servers and HorizonSeconds override the default farm.
	Profile        string  `json:"profile,omitempty"`
	BaseRate       float64 `json:"base_rate,omitempty"`
	PeakRate       float64 `json:"peak_rate,omitempty"`
	Servers        int     `json:"servers,omitempty"`
	HorizonSeconds float64 `json:"horizon_seconds,omitempty"`
}

// SeedOf returns a Scenario/SweepSpec seed holding v. The indirection
// exists so an explicit seed 0 is distinguishable from an absent field.
func SeedOf(v uint64) *uint64 { return &v }

// RateOf returns a Scenario arrival rate holding v. The indirection
// exists so an explicit rate 0 (a closed farm) is distinguishable from
// an absent field (the default open workload).
func RateOf(v float64) *float64 { return &v }

// SeedValue returns the scenario's seed, applying the default when the
// field is absent.
func (s Scenario) SeedValue() uint64 {
	if s.Seed == nil {
		return DefaultSeed
	}
	return *s.Seed
}

// Normalized returns a copy with defaults filled in. Only an absent
// (nil) seed is defaulted: an explicit seed 0 survives normalization.
func (s Scenario) Normalized() Scenario {
	if s.Kind == "" {
		s.Kind = KindCluster
	}
	if s.Seed == nil {
		s.Seed = SeedOf(DefaultSeed)
	}
	switch s.Kind {
	case KindCluster, KindFarm:
		if s.Size == 0 {
			s.Size = 100
		}
		if s.MTBF != nil && *s.MTBF > 0 && s.MTTR == nil {
			s.MTTR = RateOf(DefaultMTTRSeconds)
		}
		if s.Band == "" {
			s.Band = "low"
		}
		if s.Intervals == 0 {
			s.Intervals = DefaultIntervals
		}
		if s.Sleep == "" {
			s.Sleep = "auto"
		}
		if s.Kind == KindFarm {
			if s.Clusters == 0 {
				s.Clusters = 2
			}
			if s.Dispatch == "" {
				s.Dispatch = "round-robin"
			}
			if s.ArrivalRate == nil {
				s.ArrivalRate = RateOf(farm.DefaultArrivalRate(s.Clusters, s.Size))
			}
		}
	case KindPolicy:
		if s.Profile == "" {
			s.Profile = "diurnal"
		}
		if s.BaseRate == 0 {
			s.BaseRate = 1000
		}
		if s.PeakRate == 0 {
			s.PeakRate = 5000
		}
	}
	return s
}

// Validate checks a normalized scenario.
func (s Scenario) Validate() error {
	switch s.Kind {
	case KindCluster, KindFarm:
		if s.Size <= 1 || s.Size > MaxScenarioSize {
			return fmt.Errorf("engine: %s scenario needs 1 < size <= %d, got %d", s.Kind, MaxScenarioSize, s.Size)
		}
		if s.Intervals <= 0 || s.Intervals > MaxScenarioIntervals {
			return fmt.Errorf("engine: %s scenario needs 0 < intervals <= %d, got %d", s.Kind, MaxScenarioIntervals, s.Intervals)
		}
		if _, err := ParseBand(s.Band); err != nil {
			return err
		}
		if _, err := ParseSleepPolicy(s.Sleep); err != nil {
			return err
		}
		mtbf, mttr := 0.0, 0.0
		if s.MTBF != nil {
			mtbf = *s.MTBF
		}
		if s.MTTR != nil {
			mttr = *s.MTTR
		}
		if mtbf < 0 || mttr < 0 {
			return fmt.Errorf("engine: %s scenario needs non-negative mtbf/mttr, got %v/%v", s.Kind, mtbf, mttr)
		}
		if mtbf > 0 && mttr <= 0 {
			return fmt.Errorf("engine: churn (mtbf=%v) needs a positive mttr", mtbf)
		}
		if s.Kind == KindFarm {
			if s.Clusters < 1 || s.Clusters > MaxScenarioClusters {
				return fmt.Errorf("engine: farm scenario needs 1 <= clusters <= %d, got %d", MaxScenarioClusters, s.Clusters)
			}
			if s.Clusters*s.Size > MaxScenarioSize {
				return fmt.Errorf("engine: farm scenario needs clusters × size <= %d, got %d", MaxScenarioSize, s.Clusters*s.Size)
			}
			if s.ArrivalRate != nil && (*s.ArrivalRate < 0 || *s.ArrivalRate > MaxScenarioArrivalRate) {
				return fmt.Errorf("engine: farm scenario needs 0 <= arrival_rate <= %d, got %v", MaxScenarioArrivalRate, *s.ArrivalRate)
			}
			if _, err := farm.ParseDispatch(s.Dispatch); err != nil {
				return err
			}
		}
	case KindPolicy:
		if s.Servers < 0 || s.Servers > MaxScenarioServers {
			return fmt.Errorf("engine: policy scenario needs 0 <= servers <= %d, got %d", MaxScenarioServers, s.Servers)
		}
		if s.HorizonSeconds < 0 || units.Seconds(s.HorizonSeconds) > MaxScenarioHorizon {
			return fmt.Errorf("engine: policy scenario needs 0 <= horizon_seconds <= %v", MaxScenarioHorizon)
		}
		for _, r := range []float64{s.BaseRate, s.PeakRate} {
			if r < 0 || r > MaxScenarioRate {
				return fmt.Errorf("engine: policy scenario needs 0 <= base_rate, peak_rate <= %d, got %v", MaxScenarioRate, r)
			}
		}
		cfg := s.farmConfig()
		if _, err := workload.Profile(s.Profile, s.BaseRate, s.PeakRate, cfg.Horizon); err != nil {
			return err
		}
	default:
		return fmt.Errorf("engine: unknown scenario kind %q (want %q, %q or %q)", s.Kind, KindCluster, KindPolicy, KindFarm)
	}
	return s.foreignField()
}

// foreignField rejects a set field that the scenario's kind does not
// read: the run would ignore it while the recorded cell still carried it.
func (s Scenario) foreignField() error {
	isCluster, isFarm, isPolicy := s.Kind == KindCluster, s.Kind == KindFarm, s.Kind == KindPolicy
	for _, f := range []struct {
		name       string
		set, reads bool
	}{
		{"size", s.Size != 0, isCluster || isFarm},
		{"band", s.Band != "", isCluster || isFarm},
		{"intervals", s.Intervals != 0, isCluster || isFarm},
		{"sleep", s.Sleep != "", isCluster || isFarm},
		{"compare_baseline", s.CompareBaseline, isCluster},
		{"trace", s.Trace, isCluster || isFarm},
		{"mtbf", s.MTBF != nil, isCluster || isFarm},
		{"mttr", s.MTTR != nil, isCluster || isFarm},
		{"clusters", s.Clusters != 0, isFarm},
		{"dispatch", s.Dispatch != "", isFarm},
		{"arrival_rate", s.ArrivalRate != nil, isFarm},
		{"profile", s.Profile != "", isPolicy},
		{"base_rate", s.BaseRate != 0, isPolicy},
		{"peak_rate", s.PeakRate != 0, isPolicy},
		{"servers", s.Servers != 0, isPolicy},
		{"horizon_seconds", s.HorizonSeconds != 0, isPolicy},
	} {
		if f.set && !f.reads {
			return fmt.Errorf("engine: %q does not apply to a %s scenario", f.name, s.Kind)
		}
	}
	return nil
}

// farmConfig derives the policy-farm configuration of a policy scenario.
func (s Scenario) farmConfig() policy.FarmConfig {
	cfg := policy.DefaultFarmConfig()
	cfg.Seed = s.SeedValue()
	if s.Servers > 0 {
		cfg.Servers = s.Servers
	}
	if s.HorizonSeconds > 0 {
		cfg.Horizon = units.Seconds(s.HorizonSeconds)
	}
	return cfg
}

// applyChurn copies the scenario's churn scalars into a cluster
// configuration (shared by cluster cells, their baseline-comparison
// runs, and the per-cluster template of farm cells).
func (s Scenario) applyChurn(cfg *cluster.Config) {
	if s.MTBF != nil {
		cfg.MTBF = units.Seconds(*s.MTBF)
	}
	if s.MTTR != nil {
		cfg.MTTR = units.Seconds(*s.MTTR)
	}
}

// ParseBand converts a scenario band spec — "low", "high" or "lo-hi" with
// fractional bounds like "0.25-0.45" — into a load band.
func ParseBand(spec string) (workload.Band, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "low":
		return workload.LowLoad(), nil
	case "high":
		return workload.HighLoad(), nil
	}
	lo, hi, ok := strings.Cut(spec, "-")
	if ok {
		l, errL := strconv.ParseFloat(strings.TrimSpace(lo), 64)
		h, errH := strconv.ParseFloat(strings.TrimSpace(hi), 64)
		if errL == nil && errH == nil {
			b := workload.Band{Lo: l, Hi: h}
			return b, b.Validate()
		}
	}
	return workload.Band{}, fmt.Errorf(`engine: invalid band %q (want "low", "high" or "lo-hi")`, spec)
}

// ParseSleepPolicy converts a scenario sleep spec into a cluster policy.
func ParseSleepPolicy(spec string) (cluster.SleepPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "auto":
		return cluster.SleepAuto, nil
	case "c3", "c3-only":
		return cluster.SleepC3Only, nil
	case "c6", "c6-only":
		return cluster.SleepC6Only, nil
	case "never", "always-on":
		return cluster.SleepNever, nil
	}
	return 0, fmt.Errorf(`engine: invalid sleep policy %q (want "auto", "c3", "c6" or "never")`, spec)
}

// Result is the outcome of one scenario.
//
//ealb:digest
type Result struct {
	Kind     string      `json:"kind"`
	Scenario Scenario    `json:"scenario"`
	Cluster  *ClusterRun `json:"cluster,omitempty"`
	// Farm holds the federated result of a farm scenario.
	Farm *FarmRun `json:"farm,omitempty"`
	// AlwaysOnJoules and JoulesSaved are set when the scenario requested
	// a baseline comparison.
	AlwaysOnJoules float64 `json:"always_on_joules,omitempty"`
	JoulesSaved    float64 `json:"joules_saved,omitempty"`
	// Policies holds the §3 line-up results of a policy scenario.
	Policies []policy.Result `json:"policies,omitempty"`
}

// RunScenario normalizes, validates and executes one scenario on the
// pool, blocking until it completes. It is exactly a one-cell sweep
// through RunExpandedHooked — the path RunSweep takes too, which is what
// keeps sweep cells bit-identical to individual runs by construction. Cancelling
// the context stops the underlying simulations at their next preemption
// point and returns ctx.Err() (possibly wrapped).
func (p *Pool) RunScenario(ctx context.Context, s Scenario) (Result, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	ex := ExpandedSweep{
		spec:  SweepSpec{Scenario: Scenario{Kind: s.Kind}},
		cells: []Scenario{s},
	}
	res, err := p.RunExpandedHooked(ctx, ex, RunHooks{})
	if err != nil {
		return Result{}, err
	}
	return res.Cells[0], nil
}
