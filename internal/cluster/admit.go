package cluster

import (
	"fmt"

	"ealb/internal/server"
	"ealb/internal/trace"
	"ealb/internal/units"
)

// Application admission. The paper's cloud is hierarchical: a front-end
// directs incoming applications to clusters, and each cluster's leader
// places them on servers (§4). Admit is that per-cluster entry point —
// the hook the farm dispatcher calls for every newly arriving
// application it routes to this cluster.

// Admit asks the leader to place a newly arriving application with the
// given initial demand. The leader runs its bounded candidate search
// against live loads — first for a placement that keeps the host within
// its optimal region, then, as a fallback, one that tolerates a
// suboptimal-high host — wraps the application in a freshly provisioned
// VM, and places it at the current simulation time.
//
// It returns the hosting server's ID and true on placement, or false
// when no sampled candidate can take the demand (the caller — typically
// a farm front-end — decides whether to retry elsewhere or count the
// arrival as rejected). Admission draws on the cluster's own random
// streams, so calls must be ordered deterministically by the caller;
// the farm front-end dispatches arrivals sequentially for exactly this
// reason.
func (c *Cluster) Admit(demand units.Fraction) (server.ID, bool, error) {
	if demand <= 0 || demand > 1 {
		return 0, false, fmt.Errorf("cluster: admission demand %v outside (0,1]", demand)
	}
	c.endEnergyOK = false
	dst := c.findAcceptor(demand, nil, acceptToOptHigh)
	if dst == nil {
		// Emergency placement, like failure re-placement: a full cluster
		// may still admit into R4 rather than turn the application away.
		dst = c.findAcceptor(demand, nil, acceptToSoptHigh)
	}
	if dst == nil {
		if c.cfg.Tracer != nil {
			c.emit(trace.Event{Kind: trace.KindAdmit, Src: -1, Dst: -1, App: -1, Demand: float64(demand)})
		}
		return 0, false, nil
	}
	a := c.appArena.alloc()
	if err := c.appGen.NextInto(a, demand); err != nil {
		return 0, false, err
	}
	// A fresh arrival gets the tight right-sized reservation of a restart;
	// vertical scaling takes over once demand outgrows it.
	a.Provision(reservationQuantum / 2)
	h, err := c.newHosted(a, c.rng)
	if err != nil {
		return 0, false, err
	}
	if err := dst.Place(h, c.now); err != nil {
		return 0, false, err
	}
	c.idx.markDirty(dst.ID())
	// The front-end's placement command is a control-plane message from
	// the leader hub to the chosen host.
	if err := c.net.send(leaderNode, nodeID(dst.ID())); err != nil {
		return 0, false, err
	}
	if c.cfg.Tracer != nil {
		c.emit(trace.Event{Kind: trace.KindAdmit, Src: -1, Dst: int(dst.ID()), App: int(a.ID), Demand: float64(demand), OK: true})
	}
	return dst.ID(), true, nil
}
