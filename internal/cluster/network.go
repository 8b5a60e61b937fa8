package cluster

import (
	"fmt"

	"ealb/internal/units"
)

// The cluster network: the star topology of §4 ("the servers are
// connected to the leader by star topology"), with an energy cost per
// byte per hop.
//
// The model prices the control traffic of the reallocation protocol: the
// regime reports and migration-plan messages behind the j_k
// communication cost every server computes per reallocation interval.
// (The bulk VM memory transfer of a migration is priced by the server
// package's migration model.) Messages between two member servers
// traverse two hops (up to the hub, down to the peer); messages to the
// leader take one.
//
// Channels in real interconnects are always on regardless of load (§2);
// the model therefore also keeps an idle-power account (the paper's
// InfiniBand aside).

// nodeID identifies a network endpoint. The leader hub is leaderNode;
// servers use their non-negative server indices.
type nodeID int

// leaderNode is the reserved ID of the cluster leader at the hub.
const leaderNode nodeID = -1

// The fabric's prices: 5 nJ/byte/hop of transfer energy and a 2 W
// always-on draw per link (plesiochronous channels).
const (
	// controlMsgSize is the modeled wire size of one control message,
	// in bytes.
	controlMsgSize                = 512
	netEnergyPerByte units.Joules = 5e-9
	linkIdlePower    units.Watts  = 2
	// msgEnergy is the energy of one control message over one hop: the
	// unit of the §4 j_k estimate and q_k's price for a server with
	// nothing to move.
	msgEnergy = controlMsgSize * netEnergyPerByte
)

// network is the star-topology fabric of one cluster. Rebuild overwrites
// it whole.
type network struct {
	size int // number of member servers (== number of links)
	// energy is the transfer energy of every control message sent.
	energy units.Joules
}

// hops returns the star-topology hop count between two endpoints.
func (n *network) hops(from, to nodeID) (int, error) {
	if from == to {
		return 0, fmt.Errorf("netsim: message from node %d to itself", from)
	}
	if err := n.checkNode(from); err != nil {
		return 0, err
	}
	if err := n.checkNode(to); err != nil {
		return 0, err
	}
	if from == leaderNode || to == leaderNode {
		return 1, nil
	}
	return 2, nil // server → hub → server
}

func (n *network) checkNode(id nodeID) error {
	if id == leaderNode {
		return nil
	}
	if id < 0 || int(id) >= n.size {
		return fmt.Errorf("netsim: node %d outside cluster of %d servers", id, n.size)
	}
	return nil
}

// send models one control message and charges its transfer energy.
func (n *network) send(from, to nodeID) error {
	h, err := n.hops(from, to)
	if err != nil {
		return err
	}
	n.energy += msgEnergy * units.Joules(h)
	return nil
}

// idleEnergy returns the energy the always-on links burn over duration d
// regardless of traffic.
func (n *network) idleEnergy(d units.Seconds) units.Joules {
	return units.Joules(float64(linkIdlePower) * float64(d) * float64(n.size))
}
