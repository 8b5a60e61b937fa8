// Package policy implements the dynamic capacity-management policies the
// paper surveys in §3 and the server-farm simulation that compares them:
//
//   - reactive: provision for the load just observed [22];
//   - reactive with extra capacity: the same plus a fixed safety margin;
//   - autoscale: reactive scale-up but very conservative scale-down [9];
//   - moving-window prediction: provision for the average request rate
//     over a sliding window [7, 24];
//   - linear-regression prediction: extrapolate the window's trend;
//   - optimal: an oracle with perfect knowledge and enough lead time to
//     hide the server setup latency — the lower bound.
//
// The farm model captures the §3 trade-off exactly: switching a server on
// takes a long setup time (up to 260 s [9]) during which it burns close
// to peak power, so eager scale-down saves energy but risks SLA
// violations when the load spikes back.
package policy

import (
	"fmt"
	"math"

	"ealb/internal/queueing"
	"ealb/internal/stats"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// History is what a policy may observe when choosing capacity: the recent
// request rates (requests/second, most recent last) and the current time.
// Policies must not see the future; the oracle gets the rate function
// through its own constructor instead.
type History struct {
	Window []float64
	Now    units.Seconds
}

// Latest returns the most recent observed rate (0 with no history).
func (h History) Latest() float64 {
	if len(h.Window) == 0 {
		return 0
	}
	return h.Window[len(h.Window)-1]
}

// Policy decides how many servers should be powered for the next slot.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Target returns the desired active-server count given the observed
	// history; need converts a request rate into a server count.
	Target(h History, need func(rate float64) int) int
}

// Reactive provisions for the load just observed. §3: "generally this
// policy leads to SLA violations and could work only for slowly-varying
// and predictable loads."
type Reactive struct{}

// Name implements Policy.
func (Reactive) Name() string { return "reactive" }

// Target implements Policy.
func (Reactive) Target(h History, need func(float64) int) int {
	return need(h.Latest())
}

// ReactiveExtra keeps a safety margin of extra running servers above the
// reactive target (§3's "reactive with extra capacity", e.g. 20%).
type ReactiveExtra struct {
	Margin float64 // fraction of the reactive target kept extra
}

// Name implements Policy.
func (p ReactiveExtra) Name() string { return fmt.Sprintf("reactive+%.0f%%", p.Margin*100) }

// Target implements Policy.
func (p ReactiveExtra) Target(h History, need func(float64) int) int {
	return withMargin(need(h.Latest()), p.Margin)
}

// withMargin returns t + ⌈t·margin⌉, saturating at math.MaxInt so a huge
// margin pins the target at the farm size instead of wrapping negative.
func withMargin(t int, margin float64) int {
	v := float64(t) + math.Ceil(float64(t)*margin)
	if v >= math.MaxInt {
		return math.MaxInt
	}
	return int(v)
}

// AutoScale scales up reactively but refuses to release a server until
// demand has stayed below the release level for HoldSlots consecutive
// observations — the conservative scale-down of [9], "advantageous for
// unpredictable, spiky loads".
type AutoScale struct {
	Margin    float64
	HoldSlots int

	current int
	lowRun  int
}

// NewAutoScale returns an AutoScale policy with the given margin and
// scale-down hold.
func NewAutoScale(margin float64, holdSlots int) *AutoScale {
	if holdSlots < 1 {
		holdSlots = 1
	}
	if margin < 0 {
		margin = 0
	}
	return &AutoScale{Margin: margin, HoldSlots: holdSlots}
}

// Name implements Policy.
func (p *AutoScale) Name() string { return "autoscale" }

// Target implements Policy.
func (p *AutoScale) Target(h History, need func(float64) int) int {
	want := withMargin(need(h.Latest()), p.Margin)
	switch {
	case want >= p.current:
		p.current = want
		p.lowRun = 0
	default:
		p.lowRun++
		if p.lowRun >= p.HoldSlots {
			p.current-- // release one server at a time
			p.lowRun = 0
		}
	}
	return p.current
}

// MovingWindow provisions for the mean rate over the observation window —
// the "moving window averages" predictor of §3.
type MovingWindow struct{}

// Name implements Policy.
func (MovingWindow) Name() string { return "moving-window" }

// Target implements Policy.
func (MovingWindow) Target(h History, need func(float64) int) int {
	return need(stats.Mean(h.Window))
}

// LinearRegression fits a line to the window and provisions for the
// extrapolated next-slot rate (§3's "predictive linear regression").
type LinearRegression struct{}

// Name implements Policy.
func (LinearRegression) Name() string { return "linear-regression" }

// Target implements Policy.
func (LinearRegression) Target(h History, need func(float64) int) int {
	if len(h.Window) < 2 {
		return need(h.Latest())
	}
	xs := make([]float64, len(h.Window))
	for i := range xs {
		xs[i] = float64(i)
	}
	fit, err := stats.FitLine(xs, h.Window)
	if err != nil {
		return need(h.Latest())
	}
	pred := fit.Predict(float64(len(h.Window)))
	if pred < 0 {
		pred = 0
	}
	return need(pred)
}

// Oracle knows the true rate function and provisions, with perfect
// anticipation, for the demand that will hold once a server started now
// finishes its setup — the optimal policy of §3: no SLA violations
// (capacity sized for the response-time target via Erlang C, not just for
// raw throughput) with no wasted capacity beyond that.
type Oracle struct {
	Rate  workload.RateFunc
	Setup units.Seconds
	// Mu is the per-server service rate; RTTarget the response-time
	// bound to provision for (zero: five service times). Both must match
	// the farm being simulated for the oracle to be truly optimal.
	Mu       float64
	RTTarget units.Seconds
}

// Name implements Policy.
func (Oracle) Name() string { return "optimal(oracle)" }

// Target implements Policy.
func (o Oracle) Target(h History, need func(float64) int) int {
	// Provision for the maximum rate over the setup horizon so capacity
	// is already there when a spike lands.
	peak := 0.0
	for d := units.Seconds(0); d <= o.Setup; d += o.Setup/8 + 1 {
		if r := o.Rate(h.Now + d); r > peak {
			peak = r
		}
	}
	base := need(peak)
	if o.Mu <= 0 {
		return base
	}
	target := float64(o.RTTarget)
	if target <= 0 {
		target = 5 / o.Mu
	}
	// Size the pool for the response-time SLA, not just throughput; cap
	// the search generously above the throughput need.
	c, ok, err := queueing.MinServers(peak, o.Mu, target, base*2+16)
	if err != nil || !ok {
		return base
	}
	if c < base {
		c = base
	}
	return c
}
