package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/units"
)

func newNet(t *testing.T, size int) *Network {
	t.Helper()
	n, err := New(size, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, DefaultParams()); err == nil {
		t.Error("zero-size cluster must fail")
	}
	bad := DefaultParams()
	bad.Bandwidth = 0
	if _, err := New(10, bad); err == nil {
		t.Error("zero bandwidth must fail")
	}
	bad = DefaultParams()
	bad.Latency = -1
	if _, err := New(10, bad); err == nil {
		t.Error("negative latency must fail")
	}
}

func TestHopCounts(t *testing.T) {
	n := newNet(t, 10)
	d, err := n.Send(3, LeaderNode, MsgRegimeReport, ControlMsgSize)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops != 1 {
		t.Errorf("server→leader hops = %d, want 1", d.Hops)
	}
	d, err = n.Send(LeaderNode, 7, MsgWakeCommand, ControlMsgSize)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops != 1 {
		t.Errorf("leader→server hops = %d, want 1", d.Hops)
	}
	d, err = n.Send(2, 5, MsgNegotiate, ControlMsgSize)
	if err != nil {
		t.Fatal(err)
	}
	if d.Hops != 2 {
		t.Errorf("server→server hops = %d, want 2 (star topology)", d.Hops)
	}
}

func TestInvalidEndpoints(t *testing.T) {
	n := newNet(t, 4)
	if _, err := n.Send(1, 1, MsgAck, 100); err == nil {
		t.Error("self-send must fail")
	}
	if _, err := n.Send(1, 9, MsgAck, 100); err == nil {
		t.Error("out-of-range destination must fail")
	}
	if _, err := n.Send(-2, 1, MsgAck, 100); err == nil {
		t.Error("invalid source must fail")
	}
	if _, err := n.Send(1, 2, MsgAck, 0); err == nil {
		t.Error("zero-size message must fail")
	}
	if _, err := n.Send(1, 2, MsgMigrationPlan, -5); err == nil {
		t.Error("negative-size message must fail")
	}
}

func TestDeliveryLatency(t *testing.T) {
	p := DefaultParams()
	n, _ := New(4, p)
	size := units.Bytes(125 * units.MB) // exactly 1 second of serialization
	d, err := n.Send(0, LeaderNode, MsgMigrationPlan, size)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(p.Latency) + 1.0
	if math.Abs(float64(d.Latency)-want) > 1e-9 {
		t.Errorf("1-hop latency = %v, want %v", d.Latency, want)
	}
	// Two hops double both components (store-and-forward at the hub).
	d2, err := n.Send(0, 1, MsgMigrationPlan, size)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d2.Latency)-2*want) > 1e-9 {
		t.Errorf("2-hop latency = %v, want %v", d2.Latency, 2*want)
	}
}

func TestEnergyScalesWithHopsAndBytes(t *testing.T) {
	n := newNet(t, 4)
	d1, _ := n.Send(0, LeaderNode, MsgAck, 1000)
	d2, _ := n.Send(0, 1, MsgAck, 1000)
	if math.Abs(float64(d2.Energy)-2*float64(d1.Energy)) > 1e-15 {
		t.Errorf("2-hop energy %v != 2 × 1-hop %v", d2.Energy, d1.Energy)
	}
	d3, _ := n.Send(0, LeaderNode, MsgAck, 2000)
	if math.Abs(float64(d3.Energy)-2*float64(d1.Energy)) > 1e-15 {
		t.Errorf("double bytes must double energy: %v vs %v", d3.Energy, d1.Energy)
	}
}

func TestCountersAccumulate(t *testing.T) {
	n := newNet(t, 4)
	if _, err := n.Send(0, LeaderNode, MsgRegimeReport, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Send(0, 1, MsgNegotiate, 300); err != nil {
		t.Fatal(err)
	}
	c0 := n.NodeCounters(0)
	if c0.Messages != 2 || c0.Bytes != 800 {
		t.Errorf("node 0 counters = %+v", c0)
	}
	leader := n.NodeCounters(LeaderNode)
	if leader.Messages != 1 || leader.Bytes != 500 {
		t.Errorf("leader counters = %+v", leader)
	}
	tot := n.TotalCounters()
	if tot.Messages != 2 || tot.Bytes != 800 {
		t.Errorf("total counters = %+v", tot)
	}
	if n.NodeCounters(3).Messages != 0 {
		t.Error("untouched node must have zero counters")
	}
}

func TestEnergyConservation(t *testing.T) {
	// The two endpoints' energy shares sum to the fabric total.
	n := newNet(t, 8)
	for i := NodeID(0); i < 8; i++ {
		for j := NodeID(0); j < 8; j++ {
			if i != j {
				if _, err := n.Send(i, j, MsgNegotiate, 100); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var sum units.Joules
	for i := NodeID(0); i < 8; i++ {
		sum += n.NodeCounters(i).Energy
	}
	sum += n.NodeCounters(LeaderNode).Energy
	if math.Abs(float64(sum-n.TotalCounters().Energy)) > 1e-9 {
		t.Errorf("per-node energy %v != total %v", sum, n.TotalCounters().Energy)
	}
}

func TestIdleEnergy(t *testing.T) {
	p := DefaultParams()
	n, _ := New(100, p)
	got := n.IdleEnergy(3600)
	want := float64(p.LinkIdlePower) * 3600 * 100
	if math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("IdleEnergy = %v, want %v", got, want)
	}
	// Ideal energy-proportional fabric burns nothing when idle.
	p.LinkIdlePower = 0
	n2, _ := New(100, p)
	if n2.IdleEnergy(3600) != 0 {
		t.Error("proportional fabric idle energy must be 0")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgRegimeReport.String() != "regime-report" || MsgWakeCommand.String() != "wake-command" {
		t.Error("message type names wrong")
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Error("unknown type must render with value")
	}
}

func TestLatencyMonotoneInSizeProperty(t *testing.T) {
	n := newNet(t, 4)
	f := func(a, b uint16) bool {
		small := units.Bytes(a%10000) + 1
		big := small + units.Bytes(b%10000) + 1
		d1, err1 := n.Send(0, 1, MsgMigrationPlan, small)
		d2, err2 := n.Send(0, 1, MsgMigrationPlan, big)
		if err1 != nil || err2 != nil {
			return false
		}
		return d1.Latency <= d2.Latency && d1.Energy <= d2.Energy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
