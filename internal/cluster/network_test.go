package cluster

import (
	"context"
	"math"
	"testing"

	"ealb/internal/trace"
	"ealb/internal/workload"
)

func newNet(size int) *network {
	return &network{size: size}
}

func TestHopCounts(t *testing.T) {
	n := newNet(10)
	for _, tc := range []struct {
		from, to nodeID
		want     int
	}{
		{3, leaderNode, 1}, // server → leader
		{leaderNode, 7, 1}, // leader → server
		{2, 5, 2},          // server → hub → server (star topology)
	} {
		h, err := n.hops(tc.from, tc.to)
		if err != nil {
			t.Fatal(err)
		}
		if h != tc.want {
			t.Errorf("hops(%d, %d) = %d, want %d", tc.from, tc.to, h, tc.want)
		}
	}
}

func TestInvalidEndpoints(t *testing.T) {
	n := newNet(4)
	if err := n.send(1, 1); err == nil {
		t.Error("self-send must fail")
	}
	if err := n.send(1, 9); err == nil {
		t.Error("out-of-range destination must fail")
	}
	if err := n.send(-2, 1); err == nil {
		t.Error("invalid source must fail")
	}
	if n.energy != 0 {
		t.Errorf("rejected sends charged %v", n.energy)
	}
}

func TestEnergyScalesWithHops(t *testing.T) {
	n := newNet(4)
	if err := n.send(0, leaderNode); err != nil {
		t.Fatal(err)
	}
	one := n.energy
	if want := controlMsgSize * float64(netEnergyPerByte); math.Abs(float64(one)-want) > 1e-18 {
		t.Errorf("1-hop energy %v, want %v", one, want)
	}
	if err := n.send(0, 1); err != nil {
		t.Fatal(err)
	}
	if two := n.energy - one; math.Abs(float64(two)-2*float64(one)) > 1e-15 {
		t.Errorf("2-hop energy %v != 2 × 1-hop %v", two, one)
	}
}

func TestNetworkIdleEnergy(t *testing.T) {
	n := newNet(100)
	got := n.idleEnergy(3600)
	want := float64(linkIdlePower) * 3600 * 100
	if math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("idleEnergy = %v, want %v", got, want)
	}
}

// TestRebuildResetsNetwork: Rebuild must zero the fabric's traffic
// energy and drop the nodes a smaller cluster no longer has.
func TestRebuildResetsNetwork(t *testing.T) {
	c := mustCluster(t, 40, workload.LowLoad(), 3)
	if _, err := c.RunIntervals(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if c.net.energy == 0 {
		t.Fatal("setup: expected traffic")
	}
	if err := c.Rebuild(DefaultConfig(8, workload.LowLoad(), 3)); err != nil {
		t.Fatal(err)
	}
	if c.net.size != 8 || c.net.energy != 0 {
		t.Errorf("fabric after Rebuild: size %d energy %v, want 8 and 0", c.net.size, c.net.energy)
	}
	if err := c.net.send(20, leaderNode); err == nil {
		t.Error("send from a dropped node succeeded after the shrink")
	}
}

// TestNetworkEnergyMatchesMessageCount checks the fabric's traffic
// energy against a count taken independently of the network: every
// regime report, wake command and admission is one one-hop control
// message, and every migration one two-hop message between its
// endpoints. Migrations are summed from the interval records, not from
// move events, because the growth-routing and failure-evacuation
// migrations emit no move event.
func TestNetworkEnergyMatchesMessageCount(t *testing.T) {
	cfg := DefaultConfig(300, workload.HighLoad(), 1)
	cfg.MTBF, cfg.MTTR = 2000, 300
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	migrations, admitted := 0, 0
	for i := 0; i < 40; i++ {
		sts, err := c.RunIntervals(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		migrations += sts[0].Migrations
		_, ok, err := c.Admit(0.05)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admitted++
		}
	}
	reports := rec.Events(trace.KindReport)
	wakes := rec.Events(trace.KindWake)
	if wakes == 0 || admitted == 0 || migrations == 0 {
		t.Fatalf("scenario too quiet: %d wakes, %d admitted, %d migrations", wakes, admitted, migrations)
	}
	hops := float64(reports) + float64(wakes) + float64(admitted) + 2*float64(migrations)
	want := controlMsgSize * float64(netEnergyPerByte) * hops
	if got := float64(c.net.energy); math.Abs(got-want) > 1e-9*want {
		t.Errorf("fabric traffic energy %v J, want %v J (%d reports, %d wakes, %d admitted, %d migrations)",
			got, want, reports, wakes, admitted, migrations)
	}
}
