// Package netsim models the cluster network: the star topology of §4
// ("the servers are connected to the leader by star topology"), with
// per-link bandwidth, latency, and energy cost per byte.
//
// The model prices the control traffic of the reallocation protocol: the
// regime reports and migration-plan messages behind the j_k
// communication cost every server computes per reallocation interval.
// (The bulk VM memory transfer of a migration is priced by the
// migration package.) Messages between two member servers traverse two
// hops (up to the hub, down to the peer); messages to the leader take one.
//
// Channels in real interconnects are always on regardless of load (§2);
// the model therefore also exposes an idle-power account so experiments
// can compare an always-on fabric against an ideal energy-proportional
// one (the paper's InfiniBand aside).
package netsim

import (
	"fmt"

	"ealb/internal/units"
)

// NodeID identifies a network endpoint. The leader hub is LeaderNode;
// servers use their non-negative server indices.
type NodeID int

// LeaderNode is the reserved ID of the cluster leader at the hub.
const LeaderNode NodeID = -1

// MsgType classifies control-plane messages of the reallocation protocol.
type MsgType int

// Control message types (§4's protocol steps).
const (
	MsgRegimeReport  MsgType = iota // periodic server → leader regime report
	MsgAcceptOffer                  // R2 server offers capacity
	MsgOverloadNote                 // R4/R5 server requests relief
	MsgCandidateList                // leader → server: potential partners + costs
	MsgNegotiate                    // server ↔ server direct negotiation
	MsgMigrationPlan                // agreed VM transfer plan
	MsgWakeCommand                  // leader → sleeping server
	MsgAck
)

// String implements fmt.Stringer.
func (m MsgType) String() string {
	names := [...]string{
		"regime-report", "accept-offer", "overload-note", "candidate-list",
		"negotiate", "migration-plan", "wake-command", "ack",
	}
	if int(m) < 0 || int(m) >= len(names) {
		return fmt.Sprintf("MsgType(%d)", int(m))
	}
	return names[m]
}

// ControlMsgSize is the modeled wire size of one control message.
const ControlMsgSize = 512 // bytes

// Params configures the network model.
type Params struct {
	Bandwidth     units.Bytes   // usable per-link bandwidth, bytes/second
	Latency       units.Seconds // one-hop propagation + switching latency
	EnergyPerByte units.Joules  // transfer energy per byte per hop
	LinkIdlePower units.Watts   // always-on draw per link (plesiochronous channels)
}

// DefaultParams models a 1 Gb/s access network with 100 µs hop latency,
// 5 nJ/byte/hop and a 2 W always-on link draw.
func DefaultParams() Params {
	return Params{
		Bandwidth:     125 * units.MB,
		Latency:       100e-6,
		EnergyPerByte: 5e-9,
		LinkIdlePower: 2,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Bandwidth <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth %v", p.Bandwidth)
	}
	if p.Latency < 0 || p.EnergyPerByte < 0 || p.LinkIdlePower < 0 {
		return fmt.Errorf("netsim: negative parameter in %+v", p)
	}
	return nil
}

// Counters accumulate per-node traffic.
type Counters struct {
	Messages int
	Bytes    units.Bytes
	Energy   units.Joules
}

// add merges a single transfer into the counters.
func (c *Counters) add(bytes units.Bytes, energy units.Joules) {
	c.Messages++
	c.Bytes += bytes
	c.Energy += energy
}

// Delivery describes the cost of one message.
type Delivery struct {
	Hops    int
	Latency units.Seconds
	Energy  units.Joules
}

// Network is the star-topology fabric of one cluster.
type Network struct {
	params Params
	size   int // number of member servers (== number of links)
	// perNode is dense: index 0 is the leader hub, index id+1 server id.
	// Every Send touches two entries, so the table sits on the interval
	// hot path — a direct index beats a hashed lookup there.
	perNode []Counters
	total   Counters
}

// New creates a network for a cluster of size member servers.
func New(size int, p Params) (*Network, error) {
	if size <= 0 {
		return nil, fmt.Errorf("netsim: cluster size %d must be positive", size)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Network{params: p, size: size, perNode: make([]Counters, size+1)}, nil
}

// Size returns the number of member servers.
func (n *Network) Size() int { return n.size }

// hops returns the star-topology hop count between two endpoints.
func (n *Network) hops(from, to NodeID) (int, error) {
	if from == to {
		return 0, fmt.Errorf("netsim: message from node %d to itself", from)
	}
	if err := n.checkNode(from); err != nil {
		return 0, err
	}
	if err := n.checkNode(to); err != nil {
		return 0, err
	}
	if from == LeaderNode || to == LeaderNode {
		return 1, nil
	}
	return 2, nil // server → hub → server
}

func (n *Network) checkNode(id NodeID) error {
	if id == LeaderNode {
		return nil
	}
	if id < 0 || int(id) >= n.size {
		return fmt.Errorf("netsim: node %d outside cluster of %d servers", id, n.size)
	}
	return nil
}

// Send models one control message and returns its delivery cost.
func (n *Network) Send(from, to NodeID, _ MsgType, size units.Bytes) (Delivery, error) {
	if size <= 0 {
		return Delivery{}, fmt.Errorf("netsim: non-positive message size %v", size)
	}
	h, err := n.hops(from, to)
	if err != nil {
		return Delivery{}, err
	}
	d := Delivery{
		Hops: h,
		// Store-and-forward through the hub: one serialization per hop.
		Latency: units.Seconds(float64(h))*n.params.Latency + units.Seconds(float64(h))*units.TransferTime(size, n.params.Bandwidth),
		Energy:  units.Joules(float64(size) * float64(n.params.EnergyPerByte) * float64(h)),
	}
	n.node(from).add(size, d.Energy/2)
	n.node(to).add(size, d.Energy/2)
	n.total.add(size, d.Energy)
	return d, nil
}

// node returns the counter cell of an endpoint already validated by hops.
func (n *Network) node(id NodeID) *Counters {
	return &n.perNode[int(id)+1]
}

// NodeCounters returns a copy of the counters of one endpoint.
func (n *Network) NodeCounters(id NodeID) Counters {
	if i := int(id) + 1; i >= 0 && i < len(n.perNode) {
		return n.perNode[i]
	}
	return Counters{}
}

// TotalCounters returns a copy of the fabric-wide counters.
func (n *Network) TotalCounters() Counters { return n.total }

// IdleEnergy returns the energy the always-on links burn over duration d
// regardless of traffic — zero for an ideal energy-proportional fabric
// (LinkIdlePower = 0).
func (n *Network) IdleEnergy(d units.Seconds) units.Joules {
	return units.Joules(float64(n.params.LinkIdlePower) * float64(d) * float64(n.size))
}

// Reset re-parameterizes the network in place for a fresh simulation and
// zeroes all counters, reusing the per-node table's storage where the new
// size allows (a rebuilt cluster of the same size reallocates nothing).
func (n *Network) Reset(size int, p Params) error {
	if size <= 0 {
		return fmt.Errorf("netsim: cluster size %d must be positive", size)
	}
	if err := p.Validate(); err != nil {
		return err
	}
	n.size = size
	n.params = p
	if cap(n.perNode) >= size+1 {
		n.perNode = n.perNode[:size+1]
	} else {
		n.perNode = make([]Counters, size+1)
	}
	clear(n.perNode)
	n.total = Counters{}
	return nil
}
