// Package trace is the simulator's decision-tracing and hot-path timing
// layer. It exposes a single small interface, Tracer, that the cluster,
// farm, and engine call at their decision and phase boundaries, plus a
// handful of concrete tracers: an NDJSON Writer for diffable action
// streams, a Recorder aggregating fixed-bucket log₂ latency histograms
// for phase-cost summaries, and combinators (Multi, WithCluster) to
// compose them.
//
// Determinism contract. Tracing is strictly observational: a Tracer
// implementation must never feed back into the simulation, and the
// instrumented packages guarantee that attaching one consumes no random
// numbers and changes no simulated state — every golden digest is
// byte-identical with and without a tracer. A nil Tracer is the
// disabled state and costs a single predictable branch per hook site:
// no allocation, no time.Now call, nothing on the PR 3 allocation-free
// interval path.
package trace

import (
	"fmt"
	"time"
)

// Kind discriminates decision events.
type Kind uint8

// Decision event kinds. The first four mirror the leader's balance-plan
// actions (protocol.go applyBalance); the rest cover admission, the
// failure/repair process, and the farm front-end's dispatch decisions.
const (
	// KindReport is one awake server's regime report to the leader.
	KindReport Kind = iota
	// KindMove is one planned application migration from Src to Dst.
	KindMove
	// KindWake is the leader waking the sleeping server Src.
	KindWake
	// KindSleep parks the emptied server Src in the C-state Target.
	KindSleep
	// KindAdmit is an application admission attempt; OK reports whether
	// a host was found (Dst, App set on success).
	KindAdmit
	// KindFail is a server crash (churn or manual); Replaced/Lost count
	// the orphaned applications re-placed and dropped.
	KindFail
	// KindRepair returns the failed server Src to service.
	KindRepair
	// KindDispatch is a farm front-end routing decision: the arrival was
	// offered to cluster Cluster; OK reports admission, Dst the host.
	KindDispatch

	numKinds
)

var kindNames = [numKinds]string{
	"report", "move", "wake", "sleep", "admit", "fail", "repair", "dispatch",
}

// String returns the event kind's wire name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	if k >= numKinds {
		return nil, fmt.Errorf("trace: cannot marshal invalid kind %d", int(k))
	}
	return []byte(`"` + kindNames[k] + `"`), nil
}

// UnmarshalJSON decodes a wire name back into a kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("trace: kind is not a JSON string: %s", b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", name)
}

// NumKinds returns how many event kinds exist (for dense per-kind
// counters).
func NumKinds() int { return int(numKinds) }

// Event is one structured decision event. Server and application
// coordinates use -1 for "not applicable" so that ID 0 stays
// unambiguous; Cluster is the emitting cluster's index within a farm
// (always 0 for single-cluster runs).
type Event struct {
	Kind     Kind    `json:"kind"`
	Interval int     `json:"interval"`
	Time     float64 `json:"t"` // simulated seconds at emission
	Cluster  int     `json:"cluster"`
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	App      int     `json:"app"`
	Demand   float64 `json:"demand,omitempty"`
	Target   string  `json:"target,omitempty"` // sleep C-state (KindSleep)
	OK       bool    `json:"ok,omitempty"`
	Replaced int     `json:"replaced,omitempty"`
	Lost     int     `json:"lost,omitempty"`
}

// Phase identifies one timed slice of a reallocation interval.
type Phase uint8

// Interval phases, in execution order. Workload covers energy
// accounting plus demand evolution; Churn the failure–repair step; Plan
// and Apply the two halves of the leader's balance pass.
const (
	PhaseWorkload Phase = iota
	PhaseChurn
	PhasePlan
	PhaseApply

	// NumPhases is the number of defined phases (for dense per-phase
	// histograms).
	NumPhases
)

var phaseNames = [NumPhases]string{"workload", "churn", "plan", "apply"}

// String returns the phase's wire name.
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Tracer receives decision events and phase timings. Implementations
// must be safe for concurrent use: a sweep runs its cells in parallel,
// and they may share one tracer.
// Implementations must not feed anything back into the simulation.
type Tracer interface {
	// Event records one decision event.
	Event(Event)
	// Phase records that the given interval phase took d of wall time.
	Phase(p Phase, d time.Duration)
}

// multi fans out to several tracers in order.
type multi []Tracer

func (m multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

func (m multi) Phase(p Phase, d time.Duration) {
	for _, t := range m {
		t.Phase(p, d)
	}
}

// Multi composes tracers: every event and phase timing is delivered to
// each non-nil tracer in order. Nil entries are dropped; zero or one
// survivors collapse to nil or the survivor itself, so the composed
// tracer never adds indirection it does not need.
func Multi(ts ...Tracer) Tracer {
	var kept multi
	for _, t := range ts {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// clusterTracer stamps a fixed cluster index onto every event.
type clusterTracer struct {
	t   Tracer
	idx int
}

func (c clusterTracer) Event(e Event) {
	e.Cluster = c.idx
	c.t.Event(e)
}

func (c clusterTracer) Phase(p Phase, d time.Duration) { c.t.Phase(p, d) }

// WithCluster wraps a tracer so every event it sees carries the given
// cluster index — how a farm gives each member cluster its coordinate
// in the shared event stream. WithCluster(nil, i) is nil, so disabled
// tracing stays disabled through the wrap.
func WithCluster(t Tracer, idx int) Tracer {
	if t == nil {
		return nil
	}
	return clusterTracer{t: t, idx: idx}
}
