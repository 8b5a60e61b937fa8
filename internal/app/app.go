// Package app models the applications running inside the cluster's VMs.
//
// The heterogeneous model of §4 gives every application A_i,k a bounded
// demand process: λ_i,k is "the largest rate of increase in demand for CPU
// cycles of the application A_i,k on server S_k" per reallocation interval,
// and each application has a unique λ. The bounded rate is a load-bearing
// assumption of the paper — it is what makes per-interval reallocation
// decisions safe — so the package enforces it rather than merely sampling
// under it.
package app

import (
	"fmt"

	"ealb/internal/units"
	"ealb/internal/xrand"
)

// ID uniquely identifies an application within a simulation.
type ID int64

// App is one application instance. Demand is the normalized CPU share it
// currently needs on its host server.
type App struct {
	ID     ID
	Demand units.Fraction
	// Lambda bounds the demand increase in one reallocation interval.
	Lambda units.Fraction
	// MinDemand floors the demand so an application never evaporates
	// entirely (a stopped app is removed instead).
	MinDemand units.Fraction
	// Reserved is the CPU share currently reserved for the application's
	// VM on its host. Demand fluctuating under the reservation costs
	// nothing; outgrowing it requires a vertical scaling action (a local
	// decision in the paper's cost taxonomy).
	Reserved units.Fraction
	// Slack is the headroom Provision granted above demand; the shrink
	// hysteresis is measured relative to it so a generously provisioned
	// VM is not immediately shrink-eligible.
	Slack units.Fraction
	// Base is the demand level the application reverts toward; without
	// reversion a bounded random walk drifts to the middle of [0,1] and
	// the cluster load inflates unrealistically over a 40-interval run.
	Base units.Fraction
	// Reversion is the mean-reversion strength κ: each Evolve step pulls
	// demand toward Base by κ·(Base−Demand).
	Reversion float64
}

// New validates and creates an application.
func New(id ID, demand, lambda units.Fraction) (*App, error) {
	a := new(App)
	if err := Init(a, id, demand, lambda); err != nil {
		return nil, err
	}
	return a, nil
}

// Init validates and initializes an App value in place — the
// arena-friendly variant of New for simulations that recycle App storage
// across rebuilds. Every field is overwritten; the initialized value is
// identical to one returned by New.
func Init(a *App, id ID, demand, lambda units.Fraction) error {
	if !demand.Valid() {
		return fmt.Errorf("app %d: demand %v outside [0,1]", id, demand)
	}
	if !lambda.Valid() || lambda == 0 {
		return fmt.Errorf("app %d: lambda %v outside (0,1]", id, lambda)
	}
	*a = App{ID: id, Demand: demand, Lambda: lambda, MinDemand: 0.01, Reserved: demand, Base: demand, Reversion: 0.15}
	return nil
}

// Provision sets the reservation to the current demand plus slack,
// clamped to [Demand, 1]. Called when the VM is (re)placed on a server;
// the slack is the headroom the host can afford.
func (a *App) Provision(slack units.Fraction) {
	if slack < 0 {
		slack = 0
	}
	a.Slack = slack
	a.Reserved = (a.Demand + slack).Clamp()
	if a.Reserved < a.Demand {
		a.Reserved = a.Demand
	}
}

// NeedsVerticalScale reports whether demand has outgrown the reservation.
func (a *App) NeedsVerticalScale() bool { return a.Demand > a.Reserved }

// VerticalScale grows the reservation to cover current demand, rounding
// up to the next multiple of quantum (hypervisors allocate CPU shares in
// discrete steps). It returns the reservation increase and is a no-op
// when the reservation already covers demand.
func (a *App) VerticalScale(quantum units.Fraction) units.Fraction {
	if quantum <= 0 {
		quantum = 0.05
	}
	if !a.NeedsVerticalScale() {
		return 0
	}
	before := a.Reserved
	steps := float64(a.Demand-a.Reserved) / float64(quantum)
	n := int(steps)
	if float64(n) < steps {
		n++
	}
	a.Reserved = (a.Reserved + units.Fraction(n)*quantum).Clamp()
	if a.Reserved < a.Demand {
		a.Reserved = a.Demand
	}
	return a.Reserved - before
}

// Evolve advances the demand by one reallocation interval: a uniform step
// in [-λ, +λ], an optional deterministic drift, and a mean-reversion pull
// toward Base, clamped to [MinDemand, 1]. It returns the signed change
// actually applied.
func (a *App) Evolve(rng *xrand.Rand, drift float64) units.Fraction {
	step := units.Fraction(rng.Uniform(-float64(a.Lambda), float64(a.Lambda)) + drift +
		a.Reversion*float64(a.Base-a.Demand))
	// The paper's bound applies to increases; clamp the step so a single
	// interval can never add more than λ.
	if step > a.Lambda {
		step = a.Lambda
	}
	before := a.Demand
	next := a.Demand + step
	if next < a.MinDemand {
		next = a.MinDemand
	}
	if next > 1 {
		next = 1
	}
	a.Demand = next
	return a.Demand - before
}

// VerticalShrink releases one quantum of reservation when the
// over-reservation has grown at least one quantum beyond the provisioned
// slack — the scale-down half of vertical elasticity. It returns the
// share released (0 when nothing shrinks). Measuring the hysteresis from
// the provisioned slack means a generously provisioned VM does not shed
// its deliberate headroom after the first demand dip.
func (a *App) VerticalShrink(quantum units.Fraction) units.Fraction {
	if quantum <= 0 {
		quantum = 0.05
	}
	if a.Reserved-a.Demand < a.Slack+quantum {
		return 0
	}
	a.Reserved -= quantum
	return quantum
}

// Reset rebases the application at a new demand level — the simulator's
// model of an application being restarted or right-sized. Demand, Base
// and the reservation all move to the new level; the caller re-provisions
// slack afterwards.
func (a *App) Reset(demand units.Fraction) error {
	if !demand.Valid() || demand < a.MinDemand {
		return fmt.Errorf("app %d: reset demand %v invalid", a.ID, demand)
	}
	a.Demand = demand
	a.Base = demand
	a.Reserved = demand
	a.Slack = 0
	return nil
}

// Generator allocates applications with unique IDs and per-app unique λ
// drawn uniformly from [LambdaMin, LambdaMax).
type Generator struct {
	rng       *xrand.Rand
	nextID    ID
	LambdaMin float64
	LambdaMax float64
}

// NewGenerator returns a generator seeded from rng.
func NewGenerator(rng *xrand.Rand, lambdaMin, lambdaMax float64) (*Generator, error) {
	if lambdaMin <= 0 || lambdaMax <= lambdaMin || lambdaMax > 1 {
		return nil, fmt.Errorf("app: invalid lambda range [%v,%v)", lambdaMin, lambdaMax)
	}
	return &Generator{rng: rng, nextID: 1, LambdaMin: lambdaMin, LambdaMax: lambdaMax}, nil
}

// Next creates an application with the given initial demand.
func (g *Generator) Next(demand units.Fraction) (*App, error) {
	a := new(App)
	if err := g.NextInto(a, demand); err != nil {
		return nil, err
	}
	return a, nil
}

// NextInto initializes a (possibly recycled) App value exactly as Next
// would — same λ draw from the generator's stream, same ID assignment —
// without allocating. The generator state advances identically, so a
// simulation rebuilt over an app arena replays the same sequence.
func (g *Generator) NextInto(a *App, demand units.Fraction) error {
	if err := Init(a, g.nextID, demand, units.Fraction(g.rng.Uniform(g.LambdaMin, g.LambdaMax))); err != nil {
		return err
	}
	g.nextID++
	return nil
}
