// Package ealb is the public API of the energy-aware load balancing
// library, a from-scratch Go reproduction of Paya & Marinescu,
// "Energy-aware Load Balancing Policies for the Cloud Ecosystem"
// (arXiv:1401.2198, IPDPS workshops 2014).
//
// The library simulates a clustered cloud whose leader concentrates load
// on the smallest set of servers operating within an optimal energy
// regime and switches the rest to ACPI sleep states, subject to QoS
// constraints. Five parts are exposed:
//
//   - the cluster simulation (NewCluster / Cluster.RunIntervals), the
//     paper's §4-§5 protocol over heterogeneous servers with five
//     operating regimes R1-R5, and its federation behind a front-end
//     dispatcher (NewClusterFarm);
//   - the capacity-management policy farm (SimulatePolicy,
//     StandardPolicies), the §3 survey of reactive, predictive and
//     optimal policies;
//   - the analytic homogeneous model (HomogeneousModel), §4's
//     closed-form E_ref/E_opt estimate;
//   - the simulation engine (NewEngine), a worker pool that runs
//     multi-axis SweepSpec cross-products in parallel with results
//     bit-identical to a serial run; cmd/ealb-serve serves it over HTTP;
//   - the experiment runners (RunExperiment, RunAllExperiments) that
//     regenerate every table and figure of the paper.
//
// Every simulation entry point takes a context.Context and stops at its
// next preemption point (a reallocation interval, a decision slot, a
// queued job) when the context is cancelled, so services embedding the
// library can shed, cancel and drain work. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-versus-measured results.
//
// Everything is deterministic: the same seed reproduces a simulation
// bit for bit, on any platform, using only the standard library —
// including sweeps dispatched across many engine workers.
package ealb

import (
	"context"
	"io"

	"ealb/internal/analytic"
	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/experiments"
	"ealb/internal/farm"
	"ealb/internal/policy"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// Seconds is simulated time.
type Seconds = units.Seconds

// Cluster simulation (the paper's primary contribution).
type (
	// ClusterConfig parameterizes a cluster simulation; start from
	// DefaultClusterConfig.
	ClusterConfig = cluster.Config
	// Cluster is a simulated cluster with its leader protocol.
	Cluster = cluster.Cluster
	// SleepPolicy selects how consolidation chooses sleep states.
	SleepPolicy = cluster.SleepPolicy
	// Band is a uniform initial-load band.
	Band = workload.Band
)

// Sleep policies.
const (
	// SleepAuto applies the paper's 60% rule (§6).
	SleepAuto = cluster.SleepAuto
	// SleepC3Only always uses the shallow C3 state.
	SleepC3Only = cluster.SleepC3Only
	// SleepC6Only always uses the deep C6 state.
	SleepC6Only = cluster.SleepC6Only
	// SleepNever is the always-on baseline.
	SleepNever = cluster.SleepNever
)

// DefaultClusterConfig returns the §5 experiment parameterization for a
// cluster of the given size and initial load band.
func DefaultClusterConfig(size int, band Band, seed uint64) ClusterConfig {
	return cluster.DefaultConfig(size, band, seed)
}

// NewCluster builds and populates a cluster simulation.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// LowLoad returns the paper's 20-40% initial-load band.
func LowLoad() Band { return workload.LowLoad() }

// HighLoad returns the paper's 60-80% initial-load band.
func HighLoad() Band { return workload.HighLoad() }

// Federated farm simulation: a farm of independent clusters behind a
// front-end dispatcher routing newly arriving applications (§4's
// hierarchical cloud). Note this is distinct from FarmConfig, the §3
// capacity-management policy farm below.
type (
	// ClusterFarm is a federation of clusters with a front-end
	// dispatcher.
	ClusterFarm = farm.Farm
	// ClusterFarmConfig parameterizes a federated simulation; start from
	// DefaultClusterFarmConfig.
	ClusterFarmConfig = farm.Config
	// DispatchPolicy selects how the front-end routes new applications.
	DispatchPolicy = farm.DispatchPolicy
)

// DefaultClusterFarmConfig returns the §5 parameterization federated
// across clusters of size servers each, with the default open arrival
// workload.
func DefaultClusterFarmConfig(clusters, size int, band Band, seed uint64) ClusterFarmConfig {
	return farm.DefaultConfig(clusters, size, band, seed)
}

// NewClusterFarm builds and populates a federated farm simulation. Its
// RunIntervals accepts an *Engine as the runner to advance clusters in
// parallel (nil advances them serially; results are byte-identical).
func NewClusterFarm(cfg ClusterFarmConfig) (*ClusterFarm, error) { return farm.New(cfg) }

// ParseDispatchPolicy converts a dispatch policy name (see
// DispatchPolicyNames) into a DispatchPolicy.
func ParseDispatchPolicy(spec string) (DispatchPolicy, error) { return farm.ParseDispatch(spec) }

// DispatchPolicyNames lists the policies ParseDispatchPolicy accepts:
// round-robin, least-loaded and energy-headroom.
func DispatchPolicyNames() []string { return farm.DispatchPolicies() }

// Capacity-management policies (§3).
type (
	// Policy decides farm capacity for the next slot.
	Policy = policy.Policy
	// FarmConfig parameterizes the policy farm simulation.
	FarmConfig = policy.FarmConfig
	// PolicyResult summarizes one policy run.
	PolicyResult = policy.Result
	// RateFunc is a request-arrival rate profile.
	RateFunc = workload.RateFunc
)

// DefaultFarmConfig returns the standard policy-comparison farm.
func DefaultFarmConfig() FarmConfig { return policy.DefaultFarmConfig() }

// SimulatePolicy runs one capacity-management policy against a workload.
// Cancelling the context abandons the run at the next decision slot.
func SimulatePolicy(ctx context.Context, cfg FarmConfig, pol Policy, rate RateFunc) (PolicyResult, error) {
	return policy.Simulate(ctx, cfg, pol, rate)
}

// ComparePolicies runs several policies against the same workload.
func ComparePolicies(ctx context.Context, cfg FarmConfig, pols []Policy, rate RateFunc) ([]PolicyResult, error) {
	return policy.Compare(ctx, cfg, pols, rate)
}

// FarmSetupTime is how long an off server in the policy farm takes to
// become active (§3).
const FarmSetupTime = policy.SetupTime

// StandardPolicies returns the §3 policy line-up: reactive, reactive with
// extra capacity, autoscale, moving-window, linear-regression, and the
// optimal oracle (which needs the true rate function).
func StandardPolicies(rate RateFunc) []Policy {
	return policy.StandardSet(rate)
}

// StandardPoliciesFor is StandardPolicies with the oracle matched to the
// farm's service rate and response-time target, making it SLA-optimal
// (the paper's "optimal policy ... does not produce any SLA violations").
func StandardPoliciesFor(rate RateFunc) []Policy {
	return policy.StandardSetFor(rate)
}

// ConstantRate is a flat arrival-rate profile for the policy farm.
var ConstantRate = workload.ConstantRate

// WorkloadProfile builds a named arrival-rate profile (see
// WorkloadProfileNames) scaled to the given horizon: the farm idles at
// base req/s and the profile adds up to peak req/s on top.
func WorkloadProfile(name string, base, peak float64, horizon Seconds) (RateFunc, error) {
	return workload.Profile(name, base, peak, horizon)
}

// WorkloadProfileNames lists the profiles WorkloadProfile accepts:
// constant, diurnal, trend, spike and burst.
func WorkloadProfileNames() []string { return workload.ProfileNames() }

// HomogeneousModel is the §4 analytic model (eqs. 6-13).
type HomogeneousModel = analytic.Model

// PaperExample returns the §4 worked example whose E_ref/E_opt is 2.25.
func PaperExample() HomogeneousModel { return analytic.PaperExample() }

// Experiment reproduction.
type (
	// ExperimentOptions tunes a reproduction run (seed, interval count,
	// cluster-size sweep).
	ExperimentOptions = experiments.Options
	// ClusterRun is the raw outcome of one (size, band) experiment.
	ClusterRun = experiments.ClusterRun
)

// DefaultExperimentOptions returns the paper's parameters (seed 2014,
// 40 intervals, sizes 10^2/10^3/10^4).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// ExperimentNames lists the reproducible tables/figures/ablations.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one table or figure by name, writing the
// report to w. Valid names come from ExperimentNames.
func RunExperiment(name string, w io.Writer, opt ExperimentOptions) error {
	return experiments.Run(name, w, opt)
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(w io.Writer, opt ExperimentOptions) error {
	return experiments.RunAll(w, opt)
}

// RunClusterExperiment runs one (size, band) cluster simulation with the
// paper's defaults and returns the raw measurements.
func RunClusterExperiment(size int, band Band, seed uint64, intervals int) (ClusterRun, error) {
	return engine.RunCluster(context.Background(), size, band, seed, intervals, nil)
}

// Simulation engine.
type (
	// Engine is a worker pool executing simulation sweeps. Sweeps
	// dispatched on an Engine are bit-identical to serial runs: every
	// job derives its own random streams from its seed and results land
	// in order-preserving slots.
	Engine = engine.Pool
	// SweepSpec is the multi-axis scenario request: any sweep axis
	// (seeds, sizes, bands, sleeps, profiles, server counts) may be a
	// list plus a replications count, and (*Engine).RunSweep expands the
	// cross-product.
	SweepSpec = engine.SweepSpec
)

// NewEngine returns an engine running at most workers simulations
// concurrently; workers <= 0 selects one worker per available CPU.
func NewEngine(workers int) *Engine { return engine.NewPool(workers) }
