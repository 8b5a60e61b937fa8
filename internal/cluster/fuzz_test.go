package cluster

import (
	"context"
	"testing"

	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// FuzzPlanBalance drives the leader's pure plan step over randomized
// cluster snapshots — fuzzed size, band, seed, warm-up churn, mid-run
// admissions, and injected failures — and checks the structural
// invariants every balance plan must satisfy, then applies the plan and
// checks the post-state. The planner is the performance-critical core
// the PR 3 refactor rewrote; these invariants are what keeps future
// refactors honest between golden-digest re-pins:
//
//   - every action references a live server: move endpoints and sleep
//     candidates are awake and non-failed, wake targets are asleep and
//     non-failed;
//   - acceptors are never overfilled: after every planned move the
//     acceptor's projected raw demand stays at or below its optimal
//     region ceiling (every accept limit in the planner is ≤ OptHigh);
//   - donors and acceptors are disjoint from sleepers: no move touches a
//     server the plan has already slated for sleep (as source or
//     target), no server is both woken and slept, nothing is planned
//     twice;
//   - consolidation is all-or-nothing: a server slated for sleep has had
//     every hosted application evacuated by the plan's own moves;
//   - moves are well-formed: src ≠ dst, and the moved application is
//     present on the source (through the projection) when its move
//     executes.
func FuzzPlanBalance(f *testing.F) {
	f.Add(uint64(2014), uint64(100), uint64(0))
	f.Add(uint64(1), uint64(40), uint64(1))
	f.Add(uint64(7), uint64(90), uint64(0x2_03))
	f.Add(uint64(42), uint64(17), uint64(0x1_00_05))
	f.Add(uint64(0), uint64(2), uint64(0xff_ff_ff))
	f.Add(uint64(0x8000000000000000), uint64(100), uint64(0x1_00_00)) // high-bit seed + failures
	f.Add(uint64(2014), uint64(120), uint64(0x3_02_04))               // churn + warm-up + failures

	f.Fuzz(func(t *testing.T, seed, sizeRaw, knobs uint64) {
		size := 2 + int(sizeRaw%149) // 2..150
		band := workload.LowLoad()
		if knobs&1 != 0 {
			band = workload.HighLoad()
		}
		warmups := int(knobs>>8) % 6   // 0..5 churn intervals before planning
		failures := int(knobs>>16) % 4 // 0..3 injected crashes
		admissions := int(knobs>>24) % 8

		cfg := DefaultConfig(size, band, seed)
		if knobs&2 != 0 {
			cfg.Sleep = SleepC6Only
		}
		if knobs&4 != 0 {
			// Aggressive stochastic churn: the warm-up intervals then plan
			// against a snapshot with organically failed and repaired
			// servers, not just the manual injections below.
			cfg.MTBF = 10 * Tau
			cfg.MTTR = 3 * Tau
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
		if warmups > 0 {
			if _, err := c.RunIntervals(context.Background(), warmups); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < admissions; i++ {
			demand := 0.05 + 0.01*float64(i)
			if _, _, err := c.Admit(units.Fraction(demand)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < failures; i++ {
			// Unsigned arithmetic: int(seed) would go negative for seeds
			// with the high bit set and produce an out-of-range ID.
			id := server.ID((seed + uint64(i)*13) % uint64(size))
			// Already-failed is the only acceptable error here.
			if _, _, err := c.FailServer(id); err != nil && !c.Failed(id) {
				t.Fatal(err)
			}
		}

		plan := c.planBalance()
		verifyPlan(t, c, plan)
		if err := c.applyBalance(plan); err != nil {
			t.Fatalf("apply of a verified plan failed: %v", err)
		}
		// Index invariant: after churn, admissions, crashes, plan, and
		// apply, the incremental index agrees entry-for-entry with a full
		// rescan of the live servers (the classifier it replaced).
		verifyIndexAgainstRescan(t, c)
		// Post-apply: consolidation actually reclaimed what it planned.
		for _, a := range plan.actions {
			if a.kind != actSleep {
				continue
			}
			s := c.servers[a.src]
			if !s.Sleeping() {
				t.Fatalf("slept server %d is awake after apply", a.src)
			}
			if s.NumApps() != 0 {
				t.Fatalf("slept server %d still hosts %d apps", a.src, s.NumApps())
			}
		}
		// Failed-server exclusion holds through churn and apply: no failed
		// server hosts anything, reads as sleeping, or has a transition
		// armed (a crash abandons in-flight ACPI transitions).
		for i, s := range c.servers {
			if !c.failed[i] {
				continue
			}
			if s.NumApps() != 0 {
				t.Fatalf("failed server %d hosts %d apps after apply", i, s.NumApps())
			}
			if s.Sleeping() || s.CStateBusy(c.Now()) {
				t.Fatalf("failed server %d has ACPI state %v (busy=%v)", i, s.CState(), s.CStateBusy(c.Now()))
			}
		}
	})
}

// verifyPlan replays a balance plan against an independent projection of
// the cluster and fails on any invariant violation.
func verifyPlan(t *testing.T, c *Cluster, plan *balancePlan) {
	t.Helper()
	apps := make([]map[int64]float64, len(c.servers)) // per server: app ID -> demand
	loads := make([]float64, len(c.servers))
	for i, s := range c.servers {
		apps[i] = make(map[int64]float64, s.NumApps())
		for _, h := range s.Hosted() {
			apps[i][int64(h.App.ID)] = float64(h.App.Demand)
			loads[i] += float64(h.App.Demand)
		}
	}
	slept := make(map[server.ID]bool)
	woken := make(map[server.ID]bool)
	live := func(kind string, id server.ID) *server.Server {
		t.Helper()
		if int(id) < 0 || int(id) >= len(c.servers) {
			t.Fatalf("%s references unknown server %d", kind, id)
		}
		s := c.servers[id]
		if c.failed[id] {
			t.Fatalf("%s references failed server %d", kind, id)
		}
		return s
	}
	for i, a := range plan.actions {
		switch a.kind {
		case actMove:
			if a.src == a.dst {
				t.Fatalf("action %d: move from server %d to itself", i, a.src)
			}
			src := live("move source", a.src)
			dst := live("move target", a.dst)
			if src.Sleeping() || dst.Sleeping() {
				t.Fatalf("action %d: move %d->%d touches a sleeping server", i, a.src, a.dst)
			}
			if slept[a.src] || slept[a.dst] {
				t.Fatalf("action %d: move %d->%d touches a server already slated for sleep", i, a.src, a.dst)
			}
			if woken[a.dst] {
				t.Fatalf("action %d: move targets server %d which is still waking", i, a.dst)
			}
			demand, ok := apps[a.src][int64(a.app)]
			if !ok {
				t.Fatalf("action %d: app %d not on source server %d when its move executes", i, a.app, a.src)
			}
			delete(apps[a.src], int64(a.app))
			loads[a.src] -= demand
			apps[a.dst][int64(a.app)] = demand
			loads[a.dst] += demand
			if ceiling := float64(dst.Boundaries().OptHigh); loads[a.dst] > ceiling+1e-9 {
				t.Fatalf("action %d: move overfills server %d to %v past its regime ceiling %v",
					i, a.dst, loads[a.dst], ceiling)
			}
		case actWake:
			s := live("wake", a.src)
			if !s.Sleeping() {
				t.Fatalf("action %d: wake of awake server %d", i, a.src)
			}
			if woken[a.src] || slept[a.src] {
				t.Fatalf("action %d: server %d planned twice", i, a.src)
			}
			woken[a.src] = true
		case actSleep:
			s := live("sleep", a.src)
			if s.Sleeping() {
				t.Fatalf("action %d: sleep of already sleeping server %d", i, a.src)
			}
			if slept[a.src] || woken[a.src] {
				t.Fatalf("action %d: server %d planned twice", i, a.src)
			}
			if n := len(apps[a.src]); n != 0 {
				t.Fatalf("action %d: server %d slated for sleep with %d apps not evacuated", i, a.src, n)
			}
			slept[a.src] = true
		default:
			t.Fatalf("action %d: unknown kind %d", i, a.kind)
		}
	}
	if plan.woken != len(woken) {
		t.Fatalf("plan.woken = %d but %d wake actions", plan.woken, len(woken))
	}
}
