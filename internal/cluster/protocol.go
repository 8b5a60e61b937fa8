package cluster

import (
	"context"
	"fmt"
	"time"

	"ealb/internal/server"
	"ealb/internal/trace"
	"ealb/internal/units"
)

// IntervalStats summarizes one completed reallocation interval.
//
// The JSON encoding of this struct feeds the SHA-256 golden digests and
// the serve NDJSON streams, so every tag below is explicit and pinned:
// the historical wire names equal the Go field names, and the golden
// digests fail if one moves (a field rename cannot silently rename the
// wire field).
type IntervalStats struct {
	Index   int           `json:"Index"`
	EndTime units.Seconds `json:"EndTime"`
	// Regimes counts awake servers per region (index 0 = R1) at the end
	// of the interval, after balancing.
	Regimes  [5]int `json:"Regimes"`
	Sleeping int    `json:"Sleeping"`
	Woken    int    `json:"Woken"`
	// Decisions are the interval's scaling decisions; Ratio is the
	// in-cluster/local ratio plotted in Figure 3.
	Decisions Counts  `json:"Decisions"`
	Ratio     float64 `json:"Ratio"`
	// Migrations counts VM moves performed this interval.
	Migrations int `json:"Migrations"`
	// SLAViolations counts servers whose raw demand exceeded capacity.
	SLAViolations int            `json:"SLAViolations"`
	ClusterLoad   units.Fraction `json:"ClusterLoad"`
	// Resilience fields. Failures/Repairs count this interval's churn (or
	// manual) failure and repair events; AppsReplaced/AppsLost are the
	// orphaned applications re-placed on survivors and dropped for lack
	// of capacity; FailedCount is how many servers are down at the end of
	// the interval. All omit when zero so churn-free runs keep their
	// historical JSON encoding — the golden digests pin it.
	Failures     int `json:"Failures,omitempty"`
	Repairs      int `json:"Repairs,omitempty"`
	AppsReplaced int `json:"AppsReplaced,omitempty"`
	AppsLost     int `json:"AppsLost,omitempty"`
	FailedCount  int `json:"FailedCount,omitempty"`
	// Availability is the live-server fraction 1 − FailedCount/Size at
	// the end of the interval. It is reported only for churned runs
	// (cfg.MTBF > 0): a churn-free interval omits it rather than
	// emitting a constant 1. The pointer keeps an all-down churned
	// interval honest — availability 0 is emitted, not omitted.
	Availability *float64 `json:"Availability,omitempty"`
	// IntervalEnergy is the energy spent during this interval.
	IntervalEnergy units.Joules `json:"IntervalEnergy"`
	// AvgQCost, AvgPCost and AvgJCost are the fleet averages of the §4
	// per-server cost evaluations for the next interval: horizontal
	// scaling q_k(t+τ), vertical scaling p_k(t+τ), and leader
	// communication j_k(t+τ).
	AvgQCost units.Joules `json:"AvgQCost"`
	AvgPCost units.Joules `json:"AvgPCost"`
	AvgJCost units.Joules `json:"AvgJCost"`
}

// candidateSample bounds the leader's candidate list per placement query —
// the scalability requirement of §3 (the leader cannot scan 10^4 servers
// for every growing application).
const candidateSample = 32

// maxShedsPerDonor caps migrations out of one overloaded server per
// interval, so a pathological server cannot monopolize the leader.
const maxShedsPerDonor = 5

// RunIntervals advances the simulation by n reallocation intervals and
// returns per-interval statistics. Each interval ends τ after the last:
// the clock advances by repeated addition of τ, one interval at a time,
// so n calls of RunIntervals(ctx, 1) reach bit-identical clock values to
// one call of RunIntervals(ctx, n).
//
// The context is checked between intervals: cancelling it stops the
// simulation at the next interval boundary and returns ctx.Err() together
// with the statistics of the intervals that did complete, so a service
// can shed long-running simulations promptly. A simulation can span many
// wall-clock seconds at the paper's 10^4 scale; an interval is the
// natural preemption point because it leaves the cluster in a consistent
// state.
//
// When Config.OnInterval is set it is invoked synchronously with each
// completed interval's statistics before the next interval starts — the
// hook behind live tailing of a running simulation.
func (c *Cluster) RunIntervals(ctx context.Context, n int) ([]IntervalStats, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive interval count %d", n)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]IntervalStats, 0, n)
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		st, err := c.runInterval(c.now + Tau)
		if err != nil {
			return out, err
		}
		out = append(out, st)
		if c.cfg.OnInterval != nil {
			c.cfg.OnInterval(st)
		}
	}
	return out, nil
}

// runInterval executes one full reallocation interval at its end time
// now: account energy, evolve demand (handling growth), run the leader
// protocol (plan, then apply), and collect statistics. The regime, load,
// SLA and §4 cost statistics are read from the flushed index; only the
// energy account walks the servers. The start energy is the last
// interval's end sum unless something charged energy since.
func (c *Cluster) runInterval(now units.Seconds) (IntervalStats, error) {
	e0 := c.endEnergy
	if !c.endEnergyOK {
		e0 = c.TotalEnergy()
	}
	c.endEnergyOK = false
	c.now = now
	c.interval++

	// Phase timing is tracer-gated: the nil path takes one branch per
	// phase boundary and never reads the clock.
	tr := c.cfg.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now() //ealb:allow-nondet tracer-gated phase timer; observational only, never feeds the simulation
	}

	// Servers ran at their previous loads for the whole interval; failed
	// servers draw nothing and skip the gap.
	for _, s := range c.servers {
		if c.failed[s.ID()] {
			if err := s.SkipTo(c.now); err != nil {
				return IntervalStats{}, err
			}
			continue
		}
		if _, err := s.AccountTo(c.now); err != nil {
			return IntervalStats{}, err
		}
	}

	if err := c.evolveDemand(); err != nil {
		return IntervalStats{}, err
	}
	if tr != nil {
		tr.Phase(trace.PhaseWorkload, time.Since(t0)) //ealb:allow-nondet tracer-gated phase timer; observational only
		t0 = time.Now()                               //ealb:allow-nondet tracer-gated phase timer; observational only
	}

	// The churn process steps once per interval, after demand evolution
	// and before the leader pass, so the plan runs against the post-churn
	// fleet: fresh failures are excluded, fresh repairs are acceptors.
	failures0, repairs0 := c.failures, c.repairs
	replaced0, lost0 := c.appsReplaced, c.appsLost
	if err := c.stepChurn(); err != nil {
		return IntervalStats{}, err
	}
	if tr != nil {
		tr.Phase(trace.PhaseChurn, time.Since(t0)) //ealb:allow-nondet tracer-gated phase timer; observational only
	}

	woken, err := c.balance()
	if err != nil {
		return IntervalStats{}, err
	}

	// Everything below reads the reconciled index (post-apply regimes
	// equal the live ones).
	c.flushIndex()
	st := IntervalStats{
		Index:        c.interval,
		EndTime:      c.now,
		Regimes:      c.RegimeCounts(),
		Sleeping:     c.SleepingCount(),
		Woken:        woken,
		ClusterLoad:  c.ClusterLoad(),
		Failures:     c.failures - failures0,
		Repairs:      c.repairs - repairs0,
		AppsReplaced: c.appsReplaced - replaced0,
		AppsLost:     c.appsLost - lost0,
		FailedCount:  c.failedCount,
	}
	if c.cfg.MTBF > 0 {
		avail := float64(c.cfg.Size-c.failedCount) / float64(c.cfg.Size)
		st.Availability = &avail
	}
	st.Decisions = c.decisions
	c.decisions = Counts{}
	st.Ratio = st.Decisions.ratio()
	st.Migrations = c.intervalMigrations
	c.intervalMigrations = 0
	c.endEnergy = c.TotalEnergy()
	c.endEnergyOK = true
	st.IntervalEnergy = c.endEnergy - e0

	// One pass in server-ID order: the R4 streak for the hysteresis rule,
	// the SLA count, and the §4 end-of-interval cost evaluations (q_k,
	// p_k, j_k) averaged over the active fleet — q_k from the index's q
	// column (each server's own QCost), p_k the constant, and j_k from
	// the flushed regime.
	ls := &c.leader
	ix := &c.idx
	var q, p, j float64
	n := 0
	for i := range c.servers {
		active := c.activeID(server.ID(i))
		if active && ix.reg[i] == server.R4 {
			ls.r4Streak[i] = min(ls.r4Streak[i]+1, r4Persist)
		} else {
			ls.r4Streak[i] = 0
		}
		if !ix.sleeping[i] && ix.raw[i] > 1+1e-9 {
			st.SLAViolations++
		}
		if !active {
			continue
		}
		q += float64(ix.q[i])
		p += float64(server.PCost)
		j += float64(server.JCost(ix.reg[i], msgEnergy))
		n++
	}
	if n > 0 {
		st.AvgQCost = units.Joules(q / float64(n))
		st.AvgPCost = units.Joules(p / float64(n))
		st.AvgJCost = units.Joules(j / float64(n))
	}
	return st, nil
}

// evolveDemand advances every hosted application's demand and routes
// growth: absorbed locally (vertical, low-cost) when the server stays out
// of the overload regions, moved in-cluster (horizontal, high-cost) when
// the server is overloaded and a target exists, and absorbed locally as a
// last resort when it does not. Unlike the leader pass, demand evolution
// is not planned: each growth event resolves (and possibly migrates)
// immediately, interleaved with the RNG draws that produced it.
//
//ealb:hotpath
func (c *Cluster) evolveDemand() error {
	for _, s := range c.servers {
		if !c.activeID(s.ID()) {
			continue
		}
		// Walk the hosted list in place. A growth migration splices the
		// current entry out and shifts the rest left, so the index stays
		// put for that case; entries placed onto this server by an
		// earlier donor's migration sit at the tail and evolve too,
		// exactly as they did when this pass iterated a fresh snapshot
		// taken at each server's turn.
		for i := 0; i < s.NumApps(); {
			h := s.At(i)
			if c.rng.Bool(resetProb) {
				// Application restart/right-sizing: fresh demand and a
				// tight reservation, releasing accumulated headroom.
				// Re-provisioning the VM is a local vertical-scaling
				// action, so it counts as a low-cost local decision.
				fresh := units.Fraction(c.rng.Uniform(AppSizeMin, AppSizeMax))
				if err := h.App.Reset(fresh); err != nil {
					return err
				}
				c.noteDemandChange(s)
				h.App.Provision(reservationQuantum / 2)
				c.decisions.Local++
				i++
				continue
			}
			if !c.rng.Bool(changeProb) {
				i++
				continue
			}
			delta := h.App.Evolve(c.rng)
			c.noteDemandChange(s)
			if delta <= 0 {
				// Demand fell: release over-reservation (scale-down is
				// the other half of local vertical elasticity).
				if h.App.VerticalShrink(reservationQuantum) > 0 {
					c.decisions.Local++
				}
				i++
				continue
			}
			moved, err := c.routeGrowth(s, h)
			if err != nil {
				return err
			}
			if !moved {
				i++
			}
		}
		// Reconcile while this server's hosted list is still in cache;
		// the later readers' flushes then find little left to do.
		c.flushIndex()
	}
	return nil
}

// routeGrowth decides the scaling path for one application growth event
// and reports whether it migrated the application off s.
//
// Growth under the VM's reservation costs nothing. Growth beyond the
// reservation on a server that is not overloaded is absorbed by a local
// vertical scaling action (low cost). Growth on an overloaded (R4/R5)
// server must move in-cluster — but only if a target exists that stays
// within its optimal region; when acceptors have saturated (sustained
// high load) the growth is absorbed locally as a last resort, which is
// what makes local decisions dominant after a few intervals at 70% load.
//
//ealb:hotpath
func (c *Cluster) routeGrowth(s *server.Server, h server.Hosted) (bool, error) {
	if s.Regime().Overloaded() {
		if dst := c.findAcceptor(h.App.Demand, s, acceptToOptHigh); dst != nil {
			if err := c.migrate(s, dst, h); err != nil {
				return false, err
			}
			c.decisions.InCluster++
			return true, nil
		}
	}
	if h.App.NeedsVerticalScale() {
		h.App.VerticalScale(reservationQuantum)
		c.decisions.Local++
	}
	return false, nil
}

// acceptLimit selects which boundary an acceptor may be filled to.
type acceptLimit int

const (
	// acceptToOptLow keeps the acceptor inside R1/R2 — the conservative
	// consolidation reading of §4 step 1 ("transfer its own workload to
	// servers operating in the R1 or R2 regimes").
	acceptToOptLow acceptLimit = iota
	// acceptToOptMid fills the acceptor only to the middle of its optimal
	// region, leaving headroom so demand fluctuation does not immediately
	// tip it into R4 (used when deliberately packing during
	// consolidation).
	acceptToOptMid
	// acceptToOptHigh fills the acceptor up to the optimal region's top.
	acceptToOptHigh
	// acceptToSoptHigh tolerates suboptimal-high acceptors (emergency
	// placements only).
	acceptToSoptHigh
)

// acceptMargin keeps acceptors a little below the R3/R4 boundary so that
// ordinary demand fluctuation in the next interval does not immediately
// tip a freshly filled acceptor into R4 (which would re-shed the load —
// ping-pong churn).
const acceptMargin = 0.04

// limitAt returns the load limit an acceptor with boundaries b must stay
// under; the acceptor search reads boundaries from the index columns.
func (l acceptLimit) limitAt(b server.Boundaries) units.Fraction {
	switch l {
	case acceptToOptLow:
		return b.OptLow
	case acceptToOptMid:
		return b.OptimalTarget()
	case acceptToSoptHigh:
		return b.SoptHigh
	default:
		return b.OptHigh - acceptMargin
	}
}

// findAcceptor is planFindAcceptor for the paths that act immediately —
// demand-growth routing, failure re-placement and admission. They run
// outside a balance pass, where the projection is empty, so after the
// flush every candidate is judged from the index columns, which equal the
// live accessors bit for bit; only the winner is dereferenced. Returns
// nil when no candidate fits; exclude may be nil.
func (c *Cluster) findAcceptor(demand units.Fraction, exclude *server.Server, limit acceptLimit) *server.Server {
	c.flushIndex()
	skip := noServer
	if exclude != nil {
		skip = exclude.ID()
	}
	if id := c.planFindAcceptor(demand, skip, limit); id != noServer {
		return c.servers[id]
	}
	return nil
}

// migrate moves one hosted application from src to dst, charging the
// migration cost model and the control-plane messages.
func (c *Cluster) migrate(src, dst *server.Server, h server.Hosted) error {
	if _, err := src.Remove(h.App.ID); err != nil {
		return err
	}
	// The VM's CPU share follows current demand so the volume moved
	// reflects the load being moved.
	h.VM.CPUShare = h.App.Demand
	res := server.LiveMigrationCost(h.VM, migration)
	c.migrationEnergy += res.Energy
	if err := dst.Place(h, c.now); err != nil {
		return err
	}
	c.idx.markDirty(src.ID())
	c.idx.markDirty(dst.ID())
	c.intervalMigrations++
	// Negotiation and plan messages (src↔dst direct, per §4's "negotiates
	// directly with the potential partners").
	if err := c.net.send(nodeID(src.ID()), nodeID(dst.ID())); err != nil {
		return err
	}
	return nil
}

// balance runs the leader's end-of-interval protocol (§4) as a pure plan
// followed by an apply pass. It returns how many sleeping servers were
// woken.
func (c *Cluster) balance() (int, error) {
	defer c.leader.resetPlan()
	tr := c.cfg.Tracer
	var t0 time.Time
	if tr != nil {
		t0 = time.Now() //ealb:allow-nondet tracer-gated phase timer; observational only, never feeds the simulation
	}
	plan := c.planBalance()
	if tr != nil {
		tr.Phase(trace.PhasePlan, time.Since(t0)) //ealb:allow-nondet tracer-gated phase timer; observational only
		t0 = time.Now()                           //ealb:allow-nondet tracer-gated phase timer; observational only
	}
	if err := c.applyBalance(plan); err != nil {
		return plan.woken, err
	}
	if tr != nil {
		tr.Phase(trace.PhaseApply, time.Since(t0)) //ealb:allow-nondet tracer-gated phase timer; observational only
	}
	return plan.woken, nil
}

// emit stamps the cluster's interval coordinates onto a decision event
// and delivers it. Callers check c.cfg.Tracer != nil before building
// the event, so the nil path never reaches emit.
func (c *Cluster) emit(e trace.Event) {
	e.Interval = c.interval
	e.Time = float64(c.now)
	c.cfg.Tracer.Event(e)
}

// applyBalance executes a balance plan against the cluster: control-plane
// charges, VM migrations, wake transitions, sleep transitions, and
// decision counts. It first charges every active server's regime report
// to the leader, in server-ID order; planning changed none of the state
// activeID reads, so these are exactly the servers the plan was made
// over. The actions then replay in plan order, which preserves the
// historical interleaving of energy charges (reports, then per relief
// donor its moves and wake, then per consolidation donor its moves and
// sleep) — the float accumulators are order-sensitive, and the golden
// digest test pins that order.
//
//ealb:hotpath
func (c *Cluster) applyBalance(plan *balancePlan) error {
	// Applying charges energy; a caller driving it between intervals
	// must not leave the cached end-of-interval sum standing.
	c.endEnergyOK = false
	tr := c.cfg.Tracer
	for i := range c.servers {
		if !c.activeID(server.ID(i)) {
			continue
		}
		if err := c.net.send(nodeID(i), leaderNode); err != nil {
			return err
		}
		if tr != nil {
			c.emit(trace.Event{Kind: trace.KindReport, Src: i, Dst: -1, App: -1})
		}
	}
	for _, a := range plan.actions {
		switch a.kind {
		case actMove:
			src, err := c.serverByID(a.src)
			if err != nil {
				return err
			}
			dst, err := c.serverByID(a.dst)
			if err != nil {
				return err
			}
			h, ok := src.Lookup(a.app)
			if !ok {
				return fmt.Errorf("cluster: planned app %d not hosted on server %d", a.app, a.src)
			}
			demand := float64(h.App.Demand)
			if err := c.migrate(src, dst, h); err != nil {
				return err
			}
			c.decisions.InCluster++
			if tr != nil {
				c.emit(trace.Event{Kind: trace.KindMove, Src: int(a.src), Dst: int(a.dst), App: int(a.app), Demand: demand})
			}
		case actWake:
			s, err := c.serverByID(a.src)
			if err != nil {
				return err
			}
			if err := c.net.send(leaderNode, nodeID(a.src)); err != nil {
				return err
			}
			ready, err := s.Wake(c.now)
			if err != nil {
				return err
			}
			c.idx.onWake(a.src, ready)
			if tr != nil {
				c.emit(trace.Event{Kind: trace.KindWake, Src: int(a.src), Dst: -1, App: -1})
			}
		case actSleep:
			s, err := c.serverByID(a.src)
			if err != nil {
				return err
			}
			if err := s.Sleep(a.target, c.now); err != nil {
				return err
			}
			c.idx.onSleep(a.src, s.ReadyAt(), s.WakeLatency())
			if tr != nil {
				c.emit(trace.Event{Kind: trace.KindSleep, Src: int(a.src), Dst: -1, App: -1, Target: a.target.String()})
			}
		default:
			return fmt.Errorf("cluster: unknown plan action %d", a.kind)
		}
	}
	return nil
}
