package policy

import (
	"context"
	"fmt"
	"math"

	"ealb/internal/units"
	"ealb/internal/workload"
	"ealb/internal/xrand"
)

// The policy farm's model constants. DESIGN.md's "Model constants"
// table gives each one's unit and source.
const (
	// SetupTime is how long an off server takes to become active; during
	// setup it draws close to peak power (§3, [9]).
	SetupTime units.Seconds = 260

	// perServerRate is how many requests/second one active server
	// sustains at full utilization.
	perServerRate = 100
	// idlePower and peakPower define the linear power model of one
	// server; sleepPower is the draw of a switched-off (sleeping) server.
	idlePower, peakPower, sleepPower units.Watts = 100, 200, 5
	// windowSlots is how many past observations policies may see.
	windowSlots = 30
	// dt is the observation/decision slot length.
	dt units.Seconds = 10
)

// FarmConfig parameterizes the server-farm simulation.
type FarmConfig struct {
	// Servers is the farm size (the provisioning ceiling).
	Servers int
	// Horizon is the total simulated time.
	Horizon units.Seconds
	// Seed drives the Poisson arrival sampling.
	Seed uint64
}

// DefaultFarmConfig returns a 100-server farm with a 2-hour horizon.
func DefaultFarmConfig() FarmConfig {
	return FarmConfig{
		Servers: 100,
		Horizon: 7200,
		Seed:    1,
	}
}

// Validate checks the configuration.
func (c FarmConfig) Validate() error {
	if c.Servers <= 0 {
		return fmt.Errorf("policy: non-positive farm size %d", c.Servers)
	}
	if c.Horizon < dt {
		return fmt.Errorf("policy: invalid timing setup=%v dt=%v horizon=%v", SetupTime, dt, c.Horizon)
	}
	return nil
}

// Result summarizes one policy's run.
type Result struct {
	Policy string
	// Energy is the total farm energy over the horizon.
	Energy units.Joules
	// ViolationSlots counts slots where arrivals exceeded active capacity.
	ViolationSlots int
	// RTViolationSlots counts slots whose estimated mean response time
	// (Erlang-C M/M/c over the active pool) exceeded the configured
	// target — the response-time QoS constraint of the paper's
	// load-balancing reformulation.
	RTViolationSlots int
	// MeanResponse is the average of the finite per-slot response-time
	// estimates, in seconds.
	MeanResponse float64
	// Dropped is the number of requests beyond capacity across the run.
	// Dropped and Served are int64: at the 10⁷ req/s a service scenario
	// may ask for, a run's total outgrows a 32-bit int, though no
	// slot's count does.
	Dropped int64
	// Served is the number of requests handled.
	Served int64
	// AvgActive is the mean number of active servers.
	AvgActive float64
	// AvgSetup is the mean number of servers in setup.
	AvgSetup float64
	// Slots is the number of decision slots simulated.
	Slots int
}

// DropRate returns the fraction of requests dropped.
func (r Result) DropRate() float64 {
	total := r.Served + r.Dropped
	if total == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(total)
}

// Simulate runs one policy against one arrival-rate profile.
//
// The farm keeps three pools: active servers, servers in setup (with a
// countdown), and off servers. Each slot the policy chooses a target;
// scale-up moves off servers into setup, scale-down removes active
// servers first and pending setups second. Arrivals are Poisson with
// mean rate(t)·dt; arrivals beyond active capacity in a slot are dropped
// and the slot is an SLA violation. Energy integrates active draw
// (linear in utilization), setup draw (peak), and sleep draw.
//
// The context is checked every decision slot; cancelling it abandons the
// run and returns ctx.Err().
func Simulate(ctx context.Context, cfg FarmConfig, pol Policy, rate workload.RateFunc) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if pol == nil {
		return Result{}, fmt.Errorf("policy: nil policy")
	}
	if rate == nil {
		return Result{}, fmt.Errorf("policy: nil rate function")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	rng := xrand.New(cfg.Seed)
	res := Result{Policy: pol.Name()}
	// The QoS bound on mean response time (the paper's canonical SLA
	// constraint) is five service times.
	serviceTime := 1 / float64(perServerRate)
	target := units.Seconds(5 * serviceTime)
	need := func(r float64) int {
		n := int(float64(r)/perServerRate + 0.999999)
		if n > cfg.Servers {
			n = cfg.Servers
		}
		if n < 1 {
			n = 1 // always keep one server for availability
		}
		return n
	}

	active := need(rate(0)) // start provisioned for the initial rate
	var setups []units.Seconds
	window := make([]float64, 0, windowSlots)

	var sumActive, sumSetup float64
	var sumRT float64
	rtSlots := 0
	for now := units.Seconds(0); now < cfg.Horizon; now += dt {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Finish setups that completed during this slot.
		remaining := setups[:0]
		for _, doneAt := range setups {
			if doneAt <= now {
				active++
			} else {
				remaining = append(remaining, doneAt)
			}
		}
		setups = remaining

		// Arrivals for this slot.
		arrivals := workload.Arrivals(rng, rate, now, dt)
		capacity := int(float64(active) * perServerRate * float64(dt))
		served := arrivals
		if served > capacity {
			res.Dropped += int64(served - capacity)
			served = capacity
			res.ViolationSlots++
		}
		res.Served += int64(served)

		// Energy for the slot.
		var util float64
		if capacity > 0 {
			util = float64(served) / float64(capacity)
		}
		perActive := idlePower + units.Watts(float64(peakPower-idlePower)*util)
		off := cfg.Servers - active - len(setups)
		res.Energy += units.Joules(float64(units.Energy(perActive, dt)) * float64(active))
		res.Energy += units.Joules(float64(units.Energy(peakPower, dt)) * float64(len(setups)))
		res.Energy += units.Joules(float64(units.Energy(sleepPower, dt)) * float64(off))

		sumActive += float64(active)
		sumSetup += float64(len(setups))
		res.Slots++

		// Response-time QoS: the farm behind its load balancer is an
		// M/M/c system; estimate the slot's mean response via Erlang C.
		// An unstable slot (ρ ≥ 1) has unbounded response time — an
		// automatic violation.
		offered := float64(arrivals) / float64(dt)
		mmc := MMc{Lambda: offered, Mu: perServerRate, C: maxInt(active, 1)}
		rt, err := mmc.MeanResponse()
		if err != nil {
			return Result{}, err
		}
		if math.IsInf(rt, 1) || active == 0 {
			res.RTViolationSlots++
		} else {
			sumRT += rt
			rtSlots++
			if units.Seconds(rt) > target {
				res.RTViolationSlots++
			}
		}

		// Observe, then decide the next slot's capacity.
		obs := float64(arrivals) / float64(dt)
		if len(window) == windowSlots {
			copy(window, window[1:])
			window = window[:windowSlots-1]
		}
		window = append(window, obs)
		target := pol.Target(History{Window: window, Now: now + dt}, need)
		if target > cfg.Servers {
			target = cfg.Servers
		}
		if target < 1 {
			target = 1
		}

		provisioned := active + len(setups)
		switch {
		case target > provisioned:
			for i := 0; i < target-provisioned; i++ {
				setups = append(setups, now+dt+SetupTime)
			}
		case target < provisioned:
			drop := provisioned - target
			// Cancel pending setups first (cheapest), then stop actives.
			for drop > 0 && len(setups) > 0 {
				setups = setups[:len(setups)-1]
				drop--
			}
			if drop > active-1 {
				drop = active - 1
			}
			active -= drop
		}
	}

	res.AvgActive = sumActive / float64(res.Slots)
	res.AvgSetup = sumSetup / float64(res.Slots)
	if rtSlots > 0 {
		res.MeanResponse = sumRT / float64(rtSlots)
	}
	return res, nil
}

// Compare runs every policy against the same workload and returns the
// results in input order.
func Compare(ctx context.Context, cfg FarmConfig, pols []Policy, rate workload.RateFunc) ([]Result, error) {
	out := make([]Result, 0, len(pols))
	for _, p := range pols {
		r, err := Simulate(ctx, cfg, p, rate)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// StandardSet returns fresh instances of the §3 policy line-up for the
// given rate function (needed by the oracle). The oracle here is
// throughput-optimal only; StandardSetFor builds one that also knows the
// farm's service rate.
func StandardSet(rate workload.RateFunc) []Policy {
	return []Policy{
		Reactive{},
		ReactiveExtra{Margin: 0.2},
		NewAutoScale(0.1, 12),
		MovingWindow{},
		LinearRegression{},
		Oracle{Rate: rate, Setup: SetupTime},
	}
}

// StandardSetFor returns the standard line-up with an oracle fully
// matched to the farm (its service rate, and so its response-time
// target), making it SLA-optimal rather than merely throughput-optimal.
func StandardSetFor(rate workload.RateFunc) []Policy {
	pols := StandardSet(rate)
	pols[len(pols)-1] = Oracle{Rate: rate, Setup: SetupTime, Mu: perServerRate}
	return pols
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
