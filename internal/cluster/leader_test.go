package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"testing"

	"ealb/internal/workload"
)

// TestPlanBalanceIsPure: planning a full leader pass must not mutate any
// observable cluster state — server loads, app placement, sleep states,
// energy accounts, counters, ledger — only the leader's own scratch and
// the protocol RNG advance. Two identically-seeded clusters, one planned
// and one untouched, must remain indistinguishable.
func TestPlanBalanceIsPure(t *testing.T) {
	build := func() *Cluster {
		c, err := New(DefaultConfig(150, workload.LowLoad(), 7))
		if err != nil {
			t.Fatal(err)
		}
		// A few intervals so there are sleeping servers, streaks, and a
		// non-trivial decision surface to plan over.
		if _, err := c.RunIntervals(context.Background(), 3); err != nil {
			t.Fatal(err)
		}
		return c
	}
	planned, control := build(), build()

	plan := planned.planBalance()
	if len(plan.actions) == 0 {
		t.Fatal("expected a non-empty plan at 30% load")
	}

	if got, want := planned.TotalEnergy(), control.TotalEnergy(); got != want {
		t.Errorf("planBalance changed total energy: %v != %v", got, want)
	}
	if got, want := planned.intervalMigrations, control.intervalMigrations; got != want {
		t.Errorf("planBalance performed migrations: %d != %d", got, want)
	}
	if got, want := planned.SleepingCount(), control.SleepingCount(); got != want {
		t.Errorf("planBalance changed sleep states: %d != %d", got, want)
	}
	if got, want := planned.decisions, control.decisions; got != want {
		t.Errorf("planBalance recorded decisions: %+v != %+v", got, want)
	}
	for i, s := range planned.servers {
		cs := control.servers[i]
		if s.Load() != cs.Load() || s.NumApps() != cs.NumApps() || s.CState() != cs.CState() {
			t.Fatalf("server %d mutated by planning: load %v/%v apps %d/%d state %v/%v",
				i, s.Load(), cs.Load(), s.NumApps(), cs.NumApps(), s.CState(), cs.CState())
		}
	}

	// The plan itself must be coherent: every planned sleep fully empties
	// its server in the projection, and every move's app exists on its
	// planned source at apply time (applying must succeed).
	for _, a := range plan.actions {
		if a.kind != actSleep {
			continue
		}
		if slot := planned.leader.viewSlot[a.src]; slot != noPos && len(planned.leader.viewApps[slot]) != 0 {
			t.Errorf("planned sleep of server %d with %d apps left in projection",
				a.src, len(planned.leader.viewApps[slot]))
		}
	}
	if err := planned.applyBalance(plan); err != nil {
		t.Fatalf("applying the plan failed: %v", err)
	}
}

// TestPlanThenApplyMatchesControl: plan+apply on one cluster must land in
// exactly the state a second identically-seeded cluster reaches through
// its own balance pass (the golden digests pin the same property against
// the historical implementation end to end).
func TestPlanThenApplyMatchesControl(t *testing.T) {
	a, err := New(DefaultConfig(120, workload.HighLoad(), 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig(120, workload.HighLoad(), 11))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.RunIntervals(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunIntervals(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(sa)
	jb, _ := json.Marshal(sb)
	if sha256.Sum256(ja) != sha256.Sum256(jb) {
		t.Error("identically seeded runs diverged")
	}
	if a.TotalEnergy() != b.TotalEnergy() {
		t.Errorf("energy diverged: %v != %v", a.TotalEnergy(), b.TotalEnergy())
	}
}

// TestRebuildMatchesNew: a cluster rebuilt in place — across different
// sizes, bands, and seeds — must produce the byte-identical interval
// stream of a freshly constructed cluster with the same Config. This is
// the contract the engine's arena reuse rests on.
func TestRebuildMatchesNew(t *testing.T) {
	run := func(c *Cluster, n int) string {
		t.Helper()
		st, err := c.RunIntervals(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	fresh := func(cfg Config, n int) string {
		t.Helper()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return run(c, n)
	}

	// One arena cluster cycles through shrinking, growing, and
	// band/seed-changing configurations.
	arena, err := New(DefaultConfig(150, workload.HighLoad(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arena.RunIntervals(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		DefaultConfig(100, workload.LowLoad(), 1),  // shrink
		DefaultConfig(220, workload.HighLoad(), 9), // grow
		DefaultConfig(220, workload.LowLoad(), 9),  // same size, new band
	} {
		if err := arena.Rebuild(cfg); err != nil {
			t.Fatal(err)
		}
		if got, want := run(arena, 10), fresh(cfg, 10); got != want {
			t.Errorf("rebuilt run diverged from fresh run for size=%d seed=%d", cfg.Size, cfg.Seed)
		}
	}
}

// TestRebuildResetsFailureState: failure injection state must not leak
// through a Rebuild.
func TestRebuildResetsFailureState(t *testing.T) {
	c, err := New(DefaultConfig(60, workload.LowLoad(), 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FailServer(3); err != nil {
		t.Fatal(err)
	}
	if c.failedCount != 1 || c.failures != 1 {
		t.Fatalf("unexpected failure counts: %d current, %d total", c.failedCount, c.failures)
	}
	if err := c.Rebuild(DefaultConfig(60, workload.LowLoad(), 5)); err != nil {
		t.Fatal(err)
	}
	if c.failedCount != 0 || c.failures != 0 || c.Failed(3) {
		t.Error("failure state leaked through Rebuild")
	}
	if c.Interval() != 0 || c.Now() != 0 || c.intervalMigrations != 0 || c.decisions != (Counts{}) {
		t.Error("run counters leaked through Rebuild")
	}
}
