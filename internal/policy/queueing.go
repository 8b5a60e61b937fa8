// The M/M/c results the farm simulation's response-time QoS model is
// built on: Erlang-C waiting probability, mean queue wait, and mean
// response time for a pool of c identical servers fed by Poisson
// arrivals.
//
// The paper's QoS constraint is the response time (§1, §3 "Consistency:
// ... minimize the response time"); a server farm behind a load balancer
// is the textbook M/M/c system, so this is the right fidelity for
// deciding whether a provisioning level meets the SLA.

package policy

import (
	"fmt"
	"math"
)

// MMc describes one M/M/c operating point.
type MMc struct {
	Lambda float64 // arrival rate, requests/second
	Mu     float64 // per-server service rate, requests/second
	C      int     // number of servers
}

// Validate checks the parameters (stability is checked by the queries,
// not here, so callers can probe unstable points).
func (q MMc) Validate() error {
	if q.Lambda < 0 {
		return fmt.Errorf("queueing: negative arrival rate %v", q.Lambda)
	}
	if q.Mu <= 0 {
		return fmt.Errorf("queueing: non-positive service rate %v", q.Mu)
	}
	if q.C < 1 {
		return fmt.Errorf("queueing: at least one server required, got %d", q.C)
	}
	return nil
}

// Utilization returns ρ = λ/(cμ).
func (q MMc) Utilization() float64 {
	return q.Lambda / (float64(q.C) * q.Mu)
}

// Stable reports whether the queue is stable (ρ < 1).
func (q MMc) Stable() bool { return q.Utilization() < 1 }

// ErlangC returns the probability an arriving request must wait (all c
// servers busy). It returns 1 for an unstable system. The computation
// uses the numerically stable iterative form rather than raw factorials,
// so it is exact for hundreds of servers.
func (q MMc) ErlangC() (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !q.Stable() {
		return 1, nil
	}
	a := q.Lambda / q.Mu // offered load in Erlangs
	// Iteratively compute the Erlang-B blocking probability, then
	// convert to Erlang C.
	b := 1.0
	for k := 1; k <= q.C; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := q.Utilization()
	return b / (1 - rho*(1-b)), nil
}

// MeanWait returns the mean time a request spends queueing (Wq). It
// returns +Inf for an unstable system.
func (q MMc) MeanWait() (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !q.Stable() {
		return math.Inf(1), nil
	}
	pc, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	return pc / (float64(q.C)*q.Mu - q.Lambda), nil
}

// MeanResponse returns the mean response time (queue wait plus service).
// It returns +Inf for an unstable system.
func (q MMc) MeanResponse() (float64, error) {
	wq, err := q.MeanWait()
	if err != nil {
		return 0, err
	}
	return wq + 1/q.Mu, nil
}

// MinServers returns the smallest c for which the M/M/c system with the
// given rates meets the response-time target, capped at maxC (returning
// maxC and false when even that is insufficient).
func MinServers(lambda, mu, target float64, maxC int) (int, bool, error) {
	if lambda < 0 || mu <= 0 || target <= 0 || maxC < 1 {
		return 0, false, fmt.Errorf("queueing: invalid MinServers inputs λ=%v μ=%v target=%v max=%d", lambda, mu, target, maxC)
	}
	for c := 1; c <= maxC; c++ {
		q := MMc{Lambda: lambda, Mu: mu, C: c}
		if !q.Stable() {
			continue
		}
		rt, err := q.MeanResponse()
		if err != nil {
			return 0, false, err
		}
		if rt <= target {
			return c, true, nil
		}
	}
	return maxC, false, nil
}
