package cluster

import (
	"fmt"

	"ealb/internal/server"
	"ealb/internal/trace"
)

// Failure injection. §1 lists fault resilience among load balancing's
// original goals; this extension lets experiments crash servers and watch
// the leader re-place the lost workload. A failed server draws no power,
// takes no part in the protocol, and rejoins empty (in C0) after Repair.
// Failure state is a dense server-ID-indexed slice owned by the cluster,
// so the per-interval active checks stay pointer-chase- and hash-free.

// FailServer crashes a server at the current simulation time. Its hosted
// applications are re-placed on surviving servers by the leader — each
// re-placement is an in-cluster decision and a migration (the VM restarts
// from its image on the target). Applications that fit nowhere are
// dropped and reported; the caller decides whether that is an SLA
// catastrophe or acceptable loss.
func (c *Cluster) FailServer(id server.ID) (replaced, lost int, err error) {
	s, err := c.serverByID(id)
	if err != nil {
		return 0, 0, err
	}
	if c.failed[id] {
		return 0, 0, fmt.Errorf("cluster: server %d already failed", id)
	}
	// Close the energy account at the crash instant — at the sleep-state
	// draw if the server was parked — and reconcile the ACPI manager: an
	// in-flight sleep entry or wake-up is abandoned (the hardware lost
	// power mid-transition) so the server provably rejoins in C0 with no
	// transition armed when Repair returns it to service. Afterwards the
	// server draws nothing.
	if err := s.Crash(c.now); err != nil {
		return 0, 0, err
	}
	c.endEnergyOK = false
	c.failed[id] = true
	c.failedCount++
	c.failures++
	// Mirror the crash in the leader's index: out of every membership
	// set, ACPI reset to C0 with nothing armed, and the (soon-emptied)
	// demand entry marked stale.
	c.idx.onCrash(id)
	c.idx.markDirty(id)
	// Under churn every failure — stochastic or manual — holds the
	// server down for an exponential ~MTTR repair time.
	c.armRepair(int(id))

	// Orphaned workload: the leader re-places what it can.
	for _, h := range s.Hosted() {
		dst := c.findAcceptor(h.App.Demand, s, acceptToOptHigh)
		if dst == nil {
			dst = c.findAcceptor(h.App.Demand, s, acceptToSoptHigh)
		}
		if dst == nil {
			if _, err := s.Remove(h.App.ID); err != nil {
				return replaced, lost, err
			}
			// A hosted-set change like any other: the acceptor search
			// above may already have flushed this server's entry.
			c.idx.markDirty(id)
			lost++
			continue
		}
		// Restarting on the target: the VM image is shipped and booted,
		// priced like a live migration of the resident set (the state is
		// gone; the image and a fresh boot replace it — comparable
		// volume, and it keeps the cost model uniform).
		if err := c.migrate(s, dst, h); err != nil {
			return replaced, lost, err
		}
		c.decisions.InCluster++
		replaced++
	}
	c.appsReplaced += replaced
	c.appsLost += lost
	if c.cfg.Tracer != nil {
		c.emit(trace.Event{Kind: trace.KindFail, Src: int(id), Dst: -1, App: -1, Replaced: replaced, Lost: lost})
	}
	return replaced, lost, nil
}

// Repair returns a failed server to service: powered on, empty, in C0
// with no ACPI transition armed (FailServer reconciled the manager at
// crash time, even for servers that died asleep or mid-transition).
// The powered-off gap is skipped in its energy account.
func (c *Cluster) Repair(id server.ID) error {
	s, err := c.serverByID(id)
	if err != nil {
		return err
	}
	if !c.failed[id] {
		return fmt.Errorf("cluster: server %d is not failed", id)
	}
	if err := s.SkipTo(c.now); err != nil {
		return err
	}
	c.endEnergyOK = false
	c.failed[id] = false
	c.failedCount--
	c.repairs++
	// The rejoiner is an index member again (empty, awake in C0).
	c.idx.onRepair(id)
	// Under churn the rejoiner draws a fresh ~MTBF time-to-failure (its
	// old deadline has necessarily passed — it just crashed on it).
	c.armFailure(int(id))
	if c.cfg.Tracer != nil {
		c.emit(trace.Event{Kind: trace.KindRepair, Src: int(id), Dst: -1, App: -1})
	}
	return nil
}

// Failed reports whether a server is currently failed.
func (c *Cluster) Failed(id server.ID) bool {
	return int(id) >= 0 && int(id) < len(c.failed) && c.failed[id]
}

func (c *Cluster) serverByID(id server.ID) (*server.Server, error) {
	if int(id) < 0 || int(id) >= len(c.servers) {
		return nil, fmt.Errorf("cluster: no server %d in cluster of %d", id, len(c.servers))
	}
	return c.servers[int(id)], nil
}
