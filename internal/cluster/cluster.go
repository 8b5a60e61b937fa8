// Package cluster implements the paper's primary contribution: the
// leader-coordinated, energy-aware load balancing protocol for a clustered
// cloud (§4) and the simulation experiments built on it (§5).
//
// A cluster is a set of heterogeneous servers joined to a leader by a star
// network. Time advances in reallocation intervals of length τ. At the
// end of each interval every awake server evaluates its load, classifies
// itself into one of the five operating regions R1-R5, and reports to the
// leader. The leader then brokers workload exchanges:
//
//   - R4/R5 (overloaded) servers shed VMs to R1/R2 (underloaded) servers;
//   - R1 servers that stay underloaded hand their entire workload to other
//     underloaded servers and switch to a sleep state (consolidation);
//   - when an R5 server finds no relief target the leader wakes sleeping
//     servers;
//   - the sleep state is C6 when total cluster load is below 60% of
//     capacity and C3 otherwise (§6's rule: deep sleep only when extra
//     capacity is unlikely to be needed soon).
//
// Application demand evolves at a bounded rate (λ per interval). Demand
// growth absorbed on the local server is a low-cost vertical scaling
// decision; growth that must move to another server is a high-cost
// in-cluster decision. The per-interval ratio of the two is the statistic
// of Figure 3 and Table 2.
//
// Architecturally the simulator is a persistent leader state over
// reusable storage: the leader's per-interval decision pass is a pure
// plan over dense server-ID-indexed state (leader.go) applied in a
// separate effectful step (protocol.go), and a Cluster can be Rebuilt in
// place for a new configuration, recycling its servers, apps, VMs, and
// dense per-server slices — the arena path sweeps use to avoid
// reconstructing a 10^4-server object graph per cell.
package cluster

import (
	"fmt"

	"ealb/internal/server"
	"ealb/internal/trace"
	"ealb/internal/units"
	"ealb/internal/workload"
	"ealb/internal/xrand"
)

// SleepPolicy selects which sleep states consolidation may use.
type SleepPolicy int

// Sleep policies.
const (
	// SleepAuto applies the paper's 60% rule: C6 below 60% cluster load,
	// C3 at or above it (§6).
	SleepAuto SleepPolicy = iota
	// SleepC3Only always parks servers in C3 (fast wake, higher draw).
	SleepC3Only
	// SleepC6Only always parks servers in C6 (slow wake, lowest draw).
	SleepC6Only
	// SleepNever disables consolidation: the wasteful always-on baseline
	// of §3.
	SleepNever
)

// String implements fmt.Stringer.
func (p SleepPolicy) String() string {
	switch p {
	case SleepAuto:
		return "auto(60%-rule)"
	case SleepC3Only:
		return "c3-only"
	case SleepC6Only:
		return "c6-only"
	case SleepNever:
		return "never"
	default:
		return fmt.Sprintf("SleepPolicy(%d)", int(p))
	}
}

// The model constants: parameters every run shares. DESIGN.md's "Model
// constants" table gives each one's unit and source.
const (
	// Tau is the reallocation interval τ (§4).
	Tau units.Seconds = 60
	// AppSizeMin and AppSizeMax bound individual application demands,
	// at placement and at a restart alike.
	AppSizeMin, AppSizeMax = 0.05, 0.15

	// lambdaMin and lambdaMax bound the per-application demand change
	// rate λ per interval.
	lambdaMin, lambdaMax = 0.01, 0.05
	// changeProb is the probability an application's demand changes in a
	// given interval.
	changeProb = 0.5
	// resetProb is the per-interval probability an application restarts
	// at a fresh right-sized demand level, releasing its accumulated
	// reservation (what keeps vertical-scaling activity alive in steady
	// state).
	resetProb = 0.005
	// peakPower and idleFraction define every server's linear power model.
	peakPower    units.Watts = 200
	idleFraction             = 0.5
	// maxReservationSlack caps the CPU headroom provisioned above an
	// application's demand at placement time; vertical scaling (a local
	// decision) is needed only once demand outgrows the reservation.
	maxReservationSlack = 0.15
	// slackBase and slackFactor set the provisioning slack formula
	// base + factor × freeCapacity/numApps: servers packed tight (high
	// load) grant little headroom, lightly loaded servers grant more.
	slackBase, slackFactor = 0.03, 0.4
	// reservationQuantum is the step hypervisor CPU reservations grow in.
	reservationQuantum units.Fraction = 0.05
)

// migration prices VM moves.
var migration = server.DefaultMigrationParams()

// Config parameterizes a cluster simulation. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Size is the number of servers (the paper sweeps 10^2, 10^3, 10^4).
	Size int
	// Seed makes the whole simulation reproducible.
	Seed uint64
	// InitialLoad is the band initial server loads are drawn from.
	InitialLoad workload.Band
	// Sleep selects the consolidation sleep policy.
	Sleep SleepPolicy
	// ConservativeConsolidation restricts consolidation acceptors to
	// remain within R1/R2 (load ≤ α^opt,l) instead of filling them to the
	// optimal region's upper edge. Matching becomes much harder, which
	// reproduces the very small sleep counts of the paper's Table 2; the
	// default (false) consolidates to the paper's stated objective — the
	// smallest set of servers at optimal load.
	ConservativeConsolidation bool
	// MTBF enables the stochastic churn process: while positive, every
	// live server draws an exponential time-to-failure with this mean
	// (seconds) from the cluster's dedicated churn stream, and crashes —
	// orphaned workload re-placed by the leader, unplaceable applications
	// lost — when the deadline passes at an interval boundary. Zero (the
	// default) disables churn entirely; manual FailServer/Repair calls
	// still work either way.
	MTBF units.Seconds
	// MTTR is the churn process's mean time to repair (seconds): every
	// crashed server draws an exponential down time and rejoins empty in
	// C0 once it elapses. Required (positive) whenever MTBF is set;
	// ignored while churn is disabled, so an MTBF sweep can include the
	// mtbf=0 baseline against a fixed MTTR.
	MTTR units.Seconds
	// Ranges are the regime-boundary sampling intervals.
	Ranges server.PaperRanges
	// OnInterval, when non-nil, is invoked synchronously with the
	// statistics of every completed reallocation interval. The engine
	// wires it to the scenario service's live interval tail; it must not
	// mutate the cluster.
	OnInterval func(IntervalStats)
	// Tracer, when non-nil, receives every leader decision as a
	// structured event and every interval phase's wall time. Tracing is
	// strictly observational: it consumes no random numbers and alters
	// no simulated state, so digested output is byte-identical with and
	// without it, and a nil Tracer keeps the interval hot path
	// allocation-free.
	Tracer trace.Tracer
}

// DefaultConfig returns the §5 experiment parameterization for a cluster
// of the given size and initial load band.
func DefaultConfig(size int, band workload.Band, seed uint64) Config {
	return Config{
		Size:        size,
		Seed:        seed,
		InitialLoad: band,
		Sleep:       SleepAuto,
		Ranges:      server.DefaultRanges(),
	}
}

// Validate checks the configuration. Every float range check is
// written so that NaN fails it.
func (c Config) Validate() error {
	if c.Size <= 1 {
		return fmt.Errorf("cluster: size %d must exceed 1", c.Size)
	}
	if err := c.InitialLoad.Validate(); err != nil {
		return err
	}
	if !(c.MTBF >= 0 && c.MTTR >= 0) {
		return fmt.Errorf("cluster: invalid churn parameters mtbf=%v mttr=%v", c.MTBF, c.MTTR)
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return fmt.Errorf("cluster: churn (MTBF %v) needs a positive MTTR", c.MTBF)
	}
	return nil
}

// Cluster is one simulated cluster plus its leader state. Its storage —
// servers, the network fabric, the app/VM arenas, and
// every leader-side dense slice — persists across Rebuilds, so a sweep
// worker reuses one Cluster's allocations for every cell it simulates.
type Cluster struct {
	cfg Config

	// slab holds every server contiguously, reused across Rebuilds;
	// servers points into it, one entry per server ID.
	slab    []server.Server
	servers []*server.Server
	net     network
	// rng is the protocol's seeded stream — planpure scratch: a pure
	// plan may draw from it because the draw is part of the replayable
	// protocol state, not an observable side effect.
	//ealb:scratch
	rng    *xrand.Rand
	appGen *server.AppGenerator
	// decisions counts the open interval's scaling decisions (scaling.go).
	decisions Counts

	now      units.Seconds
	interval int

	// leader owns the protocol's persistent streaks and all plan-time
	// scratch (see leader.go) — planpure scratch: writes through it are
	// what planning is.
	//ealb:scratch
	leader leaderState

	// idx is the incrementally maintained fleet mirror the leader pass
	// and the public fleet accessors read (see index.go).
	idx serverIndex

	migrationEnergy    units.Joules
	intervalMigrations int
	nextVMID           server.VMID

	// endEnergy is TotalEnergy at the end of the last interval, which
	// the next interval takes as its start sum while endEnergyOK holds.
	// Between intervals only FailServer and Admit can charge energy;
	// they, Repair, Rebuild and applyBalance clear endEnergyOK.
	endEnergy   units.Joules
	endEnergyOK bool

	// failed tracks crashed servers (failure-injection extension),
	// densely indexed by server ID.
	failed      []bool
	failedCount int

	// Resilience counters, cumulative since Rebuild: failures, repairs,
	// orphaned applications re-placed on survivors, and applications
	// lost because no survivor could take them. runInterval reports
	// their change across the churn step as the interval's fields.
	failures     int
	repairs      int
	appsReplaced int
	appsLost     int

	// Stochastic churn state (churn.go): the dedicated failure/repair
	// stream plus per-server exponential deadlines, densely indexed by
	// server ID. Inactive (no draws, no deadlines) unless cfg.MTBF > 0.
	churnRNG *xrand.Rand
	failAt   []units.Seconds
	repairAt []units.Seconds

	// Arenas and scratch buffers reused across Rebuilds and intervals.
	appArena    arena[server.App]
	vmArena     arena[server.VM]
	sizeScratch []units.Fraction
	appScratch  []*server.App
}

// New builds and populates a cluster: per-server regime boundaries drawn
// from the configured ranges, per-server initial loads from the band,
// decomposed into applications with unique λ, each in its own VM.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{}
	if err := c.Rebuild(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Rebuild re-seeds the cluster in place for cfg, producing a state
// bit-identical to New(cfg) while reusing the receiver's allocations:
// servers are Reset in place in one contiguous slab, applications and
// VMs come from per-cluster arenas, and the network, decision counts
// and leader state are cleared in place. It is the engine's arena path
// for sweeps that simulate many cells per worker.
//
// Rebuild invalidates everything previously reachable from the cluster —
// server, application, and VM pointers as well as in-flight statistics —
// so callers must not retain references across a Rebuild.
func (c *Cluster) Rebuild(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	root := xrand.New(cfg.Seed)
	boundsRNG := root.Split()
	loadRNG := root.Split()
	appRNG := root.Split()
	evolveRNG := root.Split()
	// The churn stream splits last so every pre-churn stream keeps the
	// exact seed it had before churn existed — the golden digests for
	// churn-disabled runs pin that.
	churnRNG := root.Split()

	gen, err := server.NewAppGenerator(appRNG.Split(), lambdaMin, lambdaMax)
	if err != nil {
		return err
	}
	pm, err := server.NewLinearPower(peakPower*idleFraction, peakPower)
	if err != nil {
		return err
	}

	c.cfg = cfg
	c.net = network{size: cfg.Size}
	c.rng = evolveRNG
	c.appGen = gen
	c.decisions = Counts{}
	c.now = 0
	c.interval = 0
	c.migrationEnergy = 0
	c.intervalMigrations = 0
	c.endEnergyOK = false
	c.nextVMID = 1
	c.failedCount = 0
	c.failures = 0
	c.repairs = 0
	c.appsReplaced = 0
	c.appsLost = 0
	c.failed = resize(c.failed, cfg.Size)
	clear(c.failed)
	c.churnRNG = churnRNG
	c.failAt = resize(c.failAt, cfg.Size)
	c.repairAt = resize(c.repairAt, cfg.Size)
	clear(c.failAt)
	clear(c.repairAt)
	c.seedChurn()
	c.leader.init(cfg.Size)
	if c.leader.donorCmp == nil {
		// Built once per Cluster (Rebuild reuses it): the relief donor
		// order — R5 before R4, larger excess first, ID tiebreak. Relief
		// sorts before any planned move, so the flushed index columns are
		// exactly the projected state the comparator must rank.
		c.leader.donorCmp = func(a, b server.ID) int {
			ix := &c.idx
			ra, rb := ix.reg[a], ix.reg[b]
			if ra != rb {
				return int(rb) - int(ra)
			}
			ea := c.slab[a].Boundaries().Excess(ix.raw[a].Clamp())
			eb := c.slab[b].Boundaries().Excess(ix.raw[b].Clamp())
			if ea != eb {
				if ea > eb {
					return -1
				}
				return 1
			}
			return int(a) - int(b)
		}
	}
	c.appArena.reset()
	c.vmArena.reset()

	loads, err := workload.InitialLoads(loadRNG, cfg.Size, cfg.InitialLoad)
	if err != nil {
		return err
	}

	// The slab keeps its servers' hosted lists across Rebuilds (resize
	// carries them over when it grows), and the pointer table is rebuilt
	// whole, since growing the slab may have moved it. Each hosted list is
	// grown to its app count before anything is placed on it, so a first
	// build does not grow it by doubling.
	c.slab = resize(c.slab, cfg.Size)
	c.servers = resize(c.servers, cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		bounds, err := cfg.Ranges.Random(boundsRNG)
		if err != nil {
			return err
		}
		s := &c.slab[i]
		c.servers[i] = s
		if err := s.Reset(server.Config{ID: server.ID(i), Boundaries: bounds, Power: pm}); err != nil {
			return err
		}
		apps, err := c.populateApps(appRNG, loads[i])
		if err != nil {
			return err
		}
		// Provision each VM with a share of the server's free capacity as
		// reservation slack: generous on lightly packed servers, tight on
		// full ones. This is what makes vertical scaling kick in after
		// ~20 intervals at 30% load but within ~5 at 70% (Figure 3).
		var placedLoad units.Fraction
		for _, a := range apps {
			placedLoad += a.Demand
		}
		slack := 0.0
		if len(apps) > 0 {
			slack = slackBase + slackFactor*float64(1-placedLoad)/float64(len(apps))
			if slack > maxReservationSlack {
				slack = maxReservationSlack
			}
		}
		s.GrowHosted(len(apps))
		for _, a := range apps {
			a.Provision(units.Fraction(slack))
			h, err := c.newHosted(a, appRNG)
			if err != nil {
				return err
			}
			if err := s.Place(h, 0); err != nil {
				return err
			}
		}
	}
	c.rebuildIndex()
	return nil
}

// populateApps materializes one server's initial applications from the
// app arena so that their demands sum approximately to the target load.
// Sizes come from workload.AppendAppSizes, then each app draws its λ
// from the app generator in order; the returned slice is scratch, valid
// until the next call.
func (c *Cluster) populateApps(rng *xrand.Rand, target units.Fraction) ([]*server.App, error) {
	var err error
	c.sizeScratch, err = workload.AppendAppSizes(c.sizeScratch[:0], rng, target, AppSizeMin, AppSizeMax)
	if err != nil {
		return nil, err
	}
	c.appScratch = c.appScratch[:0]
	for _, size := range c.sizeScratch {
		a := c.appArena.alloc()
		if err := c.appGen.NextInto(a, size); err != nil {
			return nil, err
		}
		c.appScratch = append(c.appScratch, a)
	}
	return c.appScratch, nil
}

// newHosted wraps an application in a freshly provisioned VM drawn from
// the VM arena.
func (c *Cluster) newHosted(a *server.App, rng *xrand.Rand) (server.Hosted, error) {
	mem := units.Bytes(1+rng.Intn(3)) * units.GB
	v := c.vmArena.alloc()
	if err := server.InitVM(v, c.nextVMID, server.VMConfig{
		Memory:    mem,
		CPUShare:  a.Demand,
		DirtyRate: units.Bytes(10+rng.Intn(40)) * units.MB,
	}); err != nil {
		return server.Hosted{}, err
	}
	c.nextVMID++
	return server.Hosted{App: a, VM: v}, nil
}

// Servers returns the cluster members (shared, not a copy; callers must
// not mutate).
func (c *Cluster) Servers() []*server.Server { return c.servers }

// Now returns the current simulation time.
func (c *Cluster) Now() units.Seconds { return c.now }

// Interval returns how many reallocation intervals have completed.
func (c *Cluster) Interval() int { return c.interval }

// SleepingCount returns how many servers are currently in a sleep state.
func (c *Cluster) SleepingCount() int {
	return len(c.idx.sleepers)
}

// ClusterLoad returns total hosted load divided by total capacity —
// the quantity the 60% sleep rule tests. Outside a balance pass the
// projection is empty, so planClusterLoad sums the flushed index's load
// column in server-ID order, matching the historical per-server scan bit
// for bit.
func (c *Cluster) ClusterLoad() units.Fraction {
	c.flushIndex()
	return c.planClusterLoad()
}

// AwakeHeadroom returns the total optimal-region headroom of the awake,
// healthy fleet — the spare-capacity signal the farm dispatcher weighs
// arrivals by — summed in server-ID order from the index.
func (c *Cluster) AwakeHeadroom() float64 {
	c.flushIndex()
	ix := &c.idx
	var sum float64
	for i := range ix.raw {
		if ix.sleeping[i] || c.failed[i] {
			continue
		}
		sum += float64(c.slab[i].Boundaries().Headroom(ix.raw[i].Clamp()))
	}
	return sum
}

// RegimeCounts classifies the awake servers into the five regions
// (index 0 = R1). Sleeping and failed servers are excluded — they are
// reported separately, as in Table 2. The counts are the index's bucket
// sizes: membership is exactly "not sleeping and not failed".
func (c *Cluster) RegimeCounts() [5]int {
	c.flushIndex()
	var out [5]int
	for b := range c.idx.buckets {
		out[b] = len(c.idx.buckets[b])
	}
	return out
}

// TotalEnergy returns the cluster-wide energy account: server draw
// (including ACPI transitions), migration costs, control-plane transfer
// energy, and the always-on link idle draw.
func (c *Cluster) TotalEnergy() units.Joules {
	var e units.Joules
	for _, s := range c.servers {
		e += s.Energy()
	}
	e += c.migrationEnergy
	e += c.net.energy
	e += c.net.idleEnergy(c.now)
	return e
}
