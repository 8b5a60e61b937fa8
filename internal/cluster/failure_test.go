package cluster

import (
	"context"
	"testing"

	"ealb/internal/acpi"
	"ealb/internal/app"
	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/workload"
)

func TestFailServerReplacesWorkload(t *testing.T) {
	c := mustCluster(t, 100, workload.LowLoad(), 51)
	appsBefore := 0
	for _, s := range c.Servers() {
		appsBefore += s.NumApps()
	}
	victim := c.Servers()[3]
	victimApps := victim.NumApps()
	if victimApps == 0 {
		t.Fatal("victim hosts nothing; pick another seed")
	}

	replaced, lost, err := c.FailServer(victim.ID())
	if err != nil {
		t.Fatal(err)
	}
	if replaced+lost != victimApps {
		t.Errorf("replaced %d + lost %d != victim's %d apps", replaced, lost, victimApps)
	}
	// At 30% load every orphan finds a home.
	if lost != 0 {
		t.Errorf("%d apps lost at low load", lost)
	}
	if victim.NumApps() != 0 {
		t.Error("failed server still hosts apps")
	}
	appsAfter := 0
	for _, s := range c.Servers() {
		appsAfter += s.NumApps()
	}
	if appsAfter != appsBefore-lost {
		t.Errorf("app conservation broken: %d -> %d (lost %d)", appsBefore, appsAfter, lost)
	}
	if !c.Failed(victim.ID()) || c.FailedCount() != 1 || c.Failures() != 1 {
		t.Error("failure bookkeeping wrong")
	}
}

func TestFailedServerExcludedFromProtocol(t *testing.T) {
	c := mustCluster(t, 80, workload.LowLoad(), 53)
	victim := c.Servers()[0]
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	countsBefore := c.RegimeCounts()
	total := 0
	for _, n := range countsBefore {
		total += n
	}
	if total+c.SleepingCount()+c.FailedCount() != 80 {
		t.Errorf("partition with failures broken: %d awake, %d sleeping, %d failed",
			total, c.SleepingCount(), c.FailedCount())
	}
	// The cluster keeps running; no app ever lands on the failed server.
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if victim.NumApps() != 0 {
		t.Error("apps were placed on a failed server")
	}
	// The failed server's energy account froze at the crash.
	eAtCrash := victim.Energy()
	if _, err := c.RunIntervals(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if victim.Energy() != eAtCrash {
		t.Errorf("failed server kept drawing power: %v -> %v", eAtCrash, victim.Energy())
	}
}

func TestRepairReturnsServerToService(t *testing.T) {
	c := mustCluster(t, 80, workload.LowLoad(), 55)
	victim := c.Servers()[5]
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if c.Failed(victim.ID()) || c.FailedCount() != 0 {
		t.Error("repair bookkeeping wrong")
	}
	// The repaired server can host again.
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
}

func TestFailureErrors(t *testing.T) {
	c := mustCluster(t, 40, workload.LowLoad(), 57)
	if _, _, err := c.FailServer(server.ID(99)); err == nil {
		t.Error("unknown server must error")
	}
	if err := c.Repair(server.ID(99)); err == nil {
		t.Error("repairing unknown server must error")
	}
	if err := c.Repair(server.ID(0)); err == nil {
		t.Error("repairing a healthy server must error")
	}
	if _, _, err := c.FailServer(server.ID(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailServer(server.ID(0)); err == nil {
		t.Error("double failure must error")
	}
}

// sleepingServer settles a low-load cluster until consolidation has put
// at least one server to sleep and returns one of the sleepers.
func sleepingServer(t *testing.T, c *Cluster) *server.Server {
	t.Helper()
	for i := 0; i < 20 && c.SleepingCount() == 0; i++ {
		if _, err := c.RunIntervals(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range c.Servers() {
		if s.Sleeping() && !c.Failed(s.ID()) {
			return s
		}
	}
	t.Fatal("no server went to sleep; pick another seed")
	return nil
}

// partitionHolds asserts the cluster-wide accounting identity: awake
// regime counts + sleeping + failed == size. A server that failed while
// asleep used to stay "sleeping" and be counted twice.
func partitionHolds(t *testing.T, c *Cluster, size int) {
	t.Helper()
	total := 0
	for _, n := range c.RegimeCounts() {
		total += n
	}
	if total+c.SleepingCount()+c.FailedCount() != size {
		t.Fatalf("partition broken: %d awake + %d sleeping + %d failed != %d",
			total, c.SleepingCount(), c.FailedCount(), size)
	}
}

// TestFailWhileSleeping: crashing a parked server must reconcile the
// ACPI state — the victim rejoins the bookkeeping as failed (not
// sleeping), and Repair really returns it in C0, rebooted, able to host.
func TestFailWhileSleeping(t *testing.T) {
	c := mustCluster(t, 100, workload.LowLoad(), 61)
	victim := sleepingServer(t, c)

	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if victim.Sleeping() {
		t.Error("failed server still reads as sleeping")
	}
	if victim.CStateBusy(c.Now()) {
		t.Error("failed server still has an ACPI transition armed")
	}
	partitionHolds(t, c, 100)
	if _, err := c.RunIntervals(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	partitionHolds(t, c, 100)

	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if victim.CState() != acpi.C0 || victim.Sleeping() || victim.CStateBusy(c.Now()) {
		t.Fatalf("repaired server not cleanly in C0: state=%v busy=%v",
			victim.CState(), victim.CStateBusy(c.Now()))
	}
	// The repaired server is a live protocol participant again: it can
	// host immediately.
	h, err := c.newHosted(mustApp(t, c, 0.1), c.rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.Place(h, c.Now()); err != nil {
		t.Fatalf("repaired server cannot host: %v", err)
	}
	// Placing behind the cluster's back bypasses the leader-index hooks;
	// reconcile before the next interval reads the index.
	c.syncServer(victim.ID())
	if _, err := c.RunIntervals(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	partitionHolds(t, c, 100)
}

// mustApp allocates one arena application with the given demand.
func mustApp(t *testing.T, c *Cluster, demand float64) *app.App {
	t.Helper()
	a := c.appArena.alloc()
	if err := c.appGen.NextInto(a, units.Fraction(demand)); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestFailWhileCStateBusy: crashing a server mid-transition — sleep
// entry in flight, and wake-up in flight — must cancel the transition
// (and for a wake, the pending completion event) rather than leave it
// armed across the failure.
func TestFailWhileCStateBusy(t *testing.T) {
	c := mustCluster(t, 60, workload.LowLoad(), 63)
	victim := c.Servers()[2]

	// Empty the victim via a failure round-trip, then park it so the
	// sleep-entry transition is still in flight (C6 entry takes 5 s).
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if err := victim.Sleep(acpi.C6, c.Now()); err != nil {
		t.Fatal(err)
	}
	// Parking behind the cluster's back bypasses the leader-index hooks;
	// reconcile so the index sees the sleeper.
	c.syncServer(victim.ID())
	if !victim.CStateBusy(c.Now()) {
		t.Fatal("sleep entry not in flight; test setup broken")
	}
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if victim.Sleeping() || victim.CStateBusy(c.Now()) {
		t.Error("fail-while-entering-sleep left the transition armed")
	}
	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}

	// Park it again, let the entry complete, then start a wake through
	// the protocol's own path and crash it mid-wake: the wake-up must be
	// abandoned, not left armed.
	if err := victim.Sleep(acpi.C6, c.Now()); err != nil {
		t.Fatal(err)
	}
	c.syncServer(victim.ID())
	if _, err := c.RunIntervals(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if victim.Sleeping() && !victim.CStateBusy(c.Now()) {
		if err := c.applyBalance(&balancePlan{actions: []action{{kind: actWake, src: victim.ID()}}}); err != nil {
			t.Fatal(err)
		}
		if !victim.CStateBusy(c.Now()) {
			t.Fatal("wake not in flight; C6 wake latency should exceed an instant")
		}
		if _, _, err := c.FailServer(victim.ID()); err != nil {
			t.Fatal(err)
		}
		if victim.CStateBusy(c.Now()) {
			t.Error("fail-while-waking left the transition armed")
		}
		// C6 wake takes 260 s > 4τ; run well past it with the server
		// down.
		if _, err := c.RunIntervals(context.Background(), 6); err != nil {
			t.Fatal(err)
		}
		partitionHolds(t, c, 60)
	} else {
		t.Fatal("victim was woken by the protocol during settling; pick another seed")
	}
}

// TestRepairThenBalance: a repaired server must rejoin the leader pass
// as a live, awake participant — counted in the regime partition and
// eligible as an acceptor — without tripping any protocol error.
func TestRepairThenBalance(t *testing.T) {
	c := mustCluster(t, 80, workload.HighLoad(), 65)
	victim := c.Servers()[4]
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.balance(); err != nil {
		t.Fatalf("balance after repair failed: %v", err)
	}
	if !c.activeID(victim.ID()) {
		t.Error("repaired server not active in the protocol")
	}
	partitionHolds(t, c, 80)
	// At high load the empty rejoiner is prime acceptor real estate: the
	// leader must be able to move load onto it across a few intervals.
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	partitionHolds(t, c, 80)
}

// TestAdmitAllFailedCluster: admission against a cluster with no live
// capacity — every server failed, or failed-or-asleep — must reject
// cleanly (ok=false, nil error), never spin or pick a dead host.
func TestAdmitAllFailedCluster(t *testing.T) {
	c := mustCluster(t, 10, workload.LowLoad(), 67)
	for _, s := range c.Servers() {
		if _, _, err := c.FailServer(s.ID()); err != nil {
			t.Fatal(err)
		}
	}
	id, ok, err := c.Admit(0.1)
	if err != nil {
		t.Fatalf("all-failed admission errored: %v", err)
	}
	if ok {
		t.Fatalf("all-failed cluster admitted onto server %d", id)
	}
	if c.Admitted() != 0 {
		t.Errorf("admission counter moved on rejection: %d", c.Admitted())
	}

	// Mixed dead cluster: sleepers plus failures, zero live servers.
	c2 := mustCluster(t, 100, workload.LowLoad(), 69)
	sleepingServer(t, c2) // settle until consolidation parked someone
	for _, s := range c2.Servers() {
		if !s.Sleeping() && !c2.Failed(s.ID()) {
			if _, _, err := c2.FailServer(s.ID()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, ok, err := c2.Admit(0.1); err != nil || ok {
		t.Fatalf("failed-or-asleep cluster: admit = (%v, %v), want (false, nil)", ok, err)
	}
}

func TestMassFailureUnderHighLoadLosesApps(t *testing.T) {
	// At 70% load with half the cluster failed there is nowhere to put
	// the orphans: losses must be reported, not silently dropped.
	c := mustCluster(t, 40, workload.HighLoad(), 59)
	totalLost := 0
	for i := 0; i < 20; i++ {
		_, lost, err := c.FailServer(server.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		totalLost += lost
	}
	if totalLost == 0 {
		t.Error("mass failure at high load must lose some apps")
	}
	// Cluster still simulates.
	if _, err := c.RunIntervals(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
}

// syncServer reconciles one server's index entry with its live state, for
// tests that mutate a server directly instead of through the cluster's
// protocol paths.
func (c *Cluster) syncServer(id server.ID) error {
	s, err := c.serverByID(id)
	if err != nil {
		return err
	}
	ix := &c.idx
	sleeping := s.Sleeping()
	ix.sleeping[id] = sleeping
	ix.busyUntil[id] = s.ReadyAt()
	if sleeping {
		lat, err := s.WakeLatency()
		if err != nil {
			return err
		}
		ix.wakeLat[id] = lat
		ix.removeMember(id)
		ix.addSleeper(id)
	} else {
		ix.removeSleeper(id)
		if c.failed[id] {
			ix.removeMember(id)
		} else {
			ix.addMember(id)
		}
	}
	ix.markDirty(id)
	c.flushIndex()
	return nil
}
