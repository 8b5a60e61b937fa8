package server

import (
	"fmt"

	"ealb/internal/units"
	"ealb/internal/xrand"
)

// AppID uniquely identifies an application within a simulation.
type AppID int64

// App is one application running inside a VM. Demand is the normalized
// CPU share it currently needs on its host server.
//
// The heterogeneous model of §4 gives every application A_i,k a bounded
// demand process: λ_i,k is "the largest rate of increase in demand for CPU
// cycles of the application A_i,k on server S_k" per reallocation interval,
// and each application has a unique λ. The bounded rate is a load-bearing
// assumption of the paper — it is what makes per-interval reallocation
// decisions safe — so the model enforces it rather than merely sampling
// under it.
type App struct {
	ID     AppID
	Demand units.Fraction
	// lambda bounds the demand increase in one reallocation interval.
	lambda units.Fraction
	// reserved is the CPU share currently reserved for the application's
	// VM on its host. Demand fluctuating under the reservation costs
	// nothing; outgrowing it requires a vertical scaling action (a local
	// decision in the paper's cost taxonomy).
	reserved units.Fraction
	// slack is the headroom Provision granted above demand; the shrink
	// hysteresis is measured relative to it so a generously provisioned
	// VM is not immediately shrink-eligible.
	slack units.Fraction
	// base is the demand level the application reverts toward; without
	// reversion a bounded random walk drifts to the middle of [0,1] and
	// the cluster load inflates unrealistically over a 40-interval run.
	base units.Fraction
}

// The demand-process constants every application shares (DESIGN.md,
// "Model constants").
const (
	// minDemand floors the demand so an application never evaporates
	// entirely (a stopped app is removed instead).
	minDemand units.Fraction = 0.01
	// reversion is the mean-reversion strength κ: each Evolve step pulls
	// demand toward base by κ·(base−Demand).
	reversion = 0.15
)

// initApp validates and initializes an App value in place, so
// simulations can recycle App storage across rebuilds. Every field is
// overwritten.
func initApp(a *App, id AppID, demand, lambda units.Fraction) error {
	if !demand.Valid() {
		return fmt.Errorf("app %d: demand %v outside [0,1]", id, demand)
	}
	if !lambda.Valid() || lambda == 0 {
		return fmt.Errorf("app %d: lambda %v outside (0,1]", id, lambda)
	}
	*a = App{ID: id, Demand: demand, lambda: lambda, reserved: demand, base: demand}
	return nil
}

// Provision sets the reservation to the current demand plus slack,
// clamped to [Demand, 1]. Called when the VM is (re)placed on a server;
// the slack is the headroom the host can afford.
func (a *App) Provision(slack units.Fraction) {
	if slack < 0 {
		slack = 0
	}
	a.slack = slack
	a.reserved = (a.Demand + slack).Clamp()
	if a.reserved < a.Demand {
		a.reserved = a.Demand
	}
}

// NeedsVerticalScale reports whether demand has outgrown the reservation.
func (a *App) NeedsVerticalScale() bool { return a.Demand > a.reserved }

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
	before := a.reserved
	steps := float64(a.Demand-a.reserved) / float64(quantum)
	n := int(steps)
	if float64(n) < steps {
		n++
	}
	a.reserved = (a.reserved + units.Fraction(n)*quantum).Clamp()
	if a.reserved < a.Demand {
		a.reserved = a.Demand
	}
	return a.reserved - before
}

// Evolve advances the demand by one reallocation interval: a uniform step
// in [-λ, +λ] and a mean-reversion pull toward base, clamped to
// [minDemand, 1]. It returns the signed change actually applied.
func (a *App) Evolve(rng *xrand.Rand) units.Fraction {
	step := units.Fraction(rng.Uniform(-float64(a.lambda), float64(a.lambda)) +
		reversion*float64(a.base-a.Demand))
	// The paper's bound applies to increases; clamp the step so a single
	// interval can never add more than λ.
	if step > a.lambda {
		step = a.lambda
	}
	before := a.Demand
	next := a.Demand + step
	if next < minDemand {
		next = minDemand
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
	if a.reserved-a.Demand < a.slack+quantum {
		return 0
	}
	a.reserved -= quantum
	return quantum
}

// Reset rebases the application at a new demand level — the simulator's
// model of an application being restarted or right-sized. Demand, base
// and the reservation all move to the new level; the caller re-provisions
// slack afterwards.
func (a *App) Reset(demand units.Fraction) error {
	if !demand.Valid() || demand < minDemand {
		return fmt.Errorf("app %d: reset demand %v invalid", a.ID, demand)
	}
	a.Demand = demand
	a.base = demand
	a.reserved = demand
	a.slack = 0
	return nil
}

// AppGenerator allocates applications with unique IDs and per-app unique
// λ drawn uniformly from [lambdaMin, lambdaMax).
type AppGenerator struct {
	rng       *xrand.Rand
	nextID    AppID
	lambdaMin float64
	lambdaMax float64
}

// NewAppGenerator returns a generator seeded from rng.
func NewAppGenerator(rng *xrand.Rand, lambdaMin, lambdaMax float64) (*AppGenerator, error) {
	if lambdaMin <= 0 || lambdaMax <= lambdaMin || lambdaMax > 1 {
		return nil, fmt.Errorf("app: invalid lambda range [%v,%v)", lambdaMin, lambdaMax)
	}
	return &AppGenerator{rng: rng, nextID: 1, lambdaMin: lambdaMin, lambdaMax: lambdaMax}, nil
}

// Next creates an application with the given initial demand.
func (g *AppGenerator) Next(demand units.Fraction) (*App, error) {
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
func (g *AppGenerator) NextInto(a *App, demand units.Fraction) error {
	if err := initApp(a, g.nextID, demand, units.Fraction(g.rng.Uniform(g.lambdaMin, g.lambdaMax))); err != nil {
		return err
	}
	g.nextID++
	return nil
}
