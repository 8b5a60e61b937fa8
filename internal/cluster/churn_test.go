package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"ealb/internal/units"
	"ealb/internal/workload"
)

// churnConfig returns the default configuration with an aggressive
// failure–repair process: MTBF of 20 intervals per server and MTTR of 5,
// which at the test sizes produces failures nearly every interval
// without collapsing the cluster.
func churnConfig(size int, band workload.Band, seed uint64) Config {
	cfg := DefaultConfig(size, band, seed)
	cfg.MTBF = 20 * Tau
	cfg.MTTR = 5 * Tau
	return cfg
}

func TestChurnValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"negative mtbf":     func(c *Config) { c.MTBF = -1 },
		"negative mttr":     func(c *Config) { c.MTTR = -1 },
		"mtbf without mttr": func(c *Config) { c.MTBF = 3600; c.MTTR = 0 },
	} {
		cfg := DefaultConfig(50, workload.LowLoad(), 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config unexpectedly valid", name)
		}
	}
	if err := churnConfig(50, workload.LowLoad(), 1).Validate(); err != nil {
		t.Fatalf("churn config invalid: %v", err)
	}
	// MTTR with churn disabled is inert, not an error: an MTBF sweep
	// includes the mtbf=0 baseline against a fixed repair time.
	cfg := DefaultConfig(50, workload.LowLoad(), 1)
	cfg.MTTR = 300
	if err := cfg.Validate(); err != nil {
		t.Fatalf("mttr with churn disabled rejected: %v", err)
	}
}

// TestChurnProcessRuns: with an aggressive MTBF the process must inject
// failures and repairs, the interval stream must report them, and the
// cumulative counters must reconcile with the stream and with the
// failed-server count at the end.
func TestChurnProcessRuns(t *testing.T) {
	c, err := New(churnConfig(100, workload.LowLoad(), 3))
	if err != nil {
		t.Fatal(err)
	}
	sts, err := c.RunIntervals(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	var failures, repairs, replaced, lost int
	for _, st := range sts {
		failures += st.Failures
		repairs += st.Repairs
		replaced += st.AppsReplaced
		lost += st.AppsLost
		if st.Availability == nil {
			t.Fatalf("interval %d: churned run omitted availability", st.Index)
		}
		if *st.Availability < 0 || *st.Availability > 1 {
			t.Fatalf("interval %d: availability %v outside [0,1]", st.Index, *st.Availability)
		}
		if want := float64(100-st.FailedCount) / 100; *st.Availability != want {
			t.Fatalf("interval %d: availability %v != 1 - failed/size = %v", st.Index, *st.Availability, want)
		}
	}
	if failures == 0 || repairs == 0 {
		t.Fatalf("churn injected %d failures, %d repairs; want both > 0", failures, repairs)
	}
	if failures != c.failures || repairs != c.repairs ||
		replaced != c.appsReplaced || lost != c.appsLost {
		t.Fatalf("interval stream (%d,%d,%d,%d) disagrees with counters (%d,%d,%d,%d)",
			failures, repairs, replaced, lost,
			c.failures, c.repairs, c.appsReplaced, c.appsLost)
	}
	if failures-repairs != c.failedCount {
		t.Fatalf("failures %d - repairs %d != currently failed %d",
			failures, repairs, c.failedCount)
	}
}

// TestChurnConservation is the conservation-under-churn invariant: after
// K churned intervals every surviving application is hosted on exactly
// one live (non-failed, non-sleeping-with-load) server, and the
// population reconciles exactly — lost + surviving == seeded + admitted.
func TestChurnConservation(t *testing.T) {
	for _, band := range []workload.Band{workload.LowLoad(), workload.HighLoad()} {
		for seed := uint64(1); seed <= 4; seed++ {
			c, err := New(churnConfig(80, band, seed))
			if err != nil {
				t.Fatal(err)
			}
			seeded := 0
			for _, s := range c.Servers() {
				seeded += s.NumApps()
			}
			first, err := c.RunIntervals(context.Background(), 20)
			if err != nil {
				t.Fatalf("band %v seed %d: %v", band, seed, err)
			}
			// A few admissions after churn has knocked servers out, then
			// more churn: admitted apps must be conserved too.
			admitted := 0
			for i := 0; i < 5; i++ {
				if _, ok, err := c.Admit(units.Fraction(0.05 + 0.01*float64(i))); err != nil {
					t.Fatal(err)
				} else if ok {
					admitted++
				}
			}
			second, err := c.RunIntervals(context.Background(), 10)
			if err != nil {
				t.Fatal(err)
			}
			var failures, replaced, lost int
			for _, st := range append(first, second...) {
				failures += st.Failures
				replaced += st.AppsReplaced
				lost += st.AppsLost
			}

			surviving := 0
			seen := make(map[int64]bool)
			for _, s := range c.Servers() {
				if n := s.NumApps(); n > 0 {
					if c.Failed(s.ID()) {
						t.Fatalf("band %v seed %d: failed server %d hosts %d apps", band, seed, s.ID(), n)
					}
					if s.Sleeping() {
						t.Fatalf("band %v seed %d: sleeping server %d hosts %d apps", band, seed, s.ID(), n)
					}
				}
				for _, h := range s.Hosted() {
					if seen[int64(h.App.ID)] {
						t.Fatalf("band %v seed %d: app %d hosted twice", band, seed, h.App.ID)
					}
					seen[int64(h.App.ID)] = true
					surviving++
				}
			}
			if surviving+lost != seeded+admitted {
				t.Fatalf("band %v seed %d: surviving %d + lost %d != seeded %d + admitted %d",
					band, seed, surviving, lost, seeded, admitted)
			}
			if replaced+lost == 0 && failures > 0 {
				t.Fatalf("band %v seed %d: %d failures orphaned nothing", band, seed, failures)
			}
		}
	}
}

// TestChurnRebuildMatchesNew: rebuilding a churned cluster in place —
// into another churned configuration and into a churn-free one — must
// be bit-identical to fresh construction: no residual failed servers,
// deadlines, or counters may leak through the arena path.
func TestChurnRebuildMatchesNew(t *testing.T) {
	dirty, err := New(churnConfig(90, workload.HighLoad(), 7))
	if err != nil {
		t.Fatal(err)
	}
	// Leave mid-run wreckage: failed servers, armed deadlines, counters.
	if _, err := dirty.RunIntervals(context.Background(), 12); err != nil {
		t.Fatal(err)
	}
	if dirty.failedCount == 0 {
		t.Fatal("warm-up churn left nothing failed; pick a harsher config")
	}

	for name, target := range map[string]Config{
		"churned":    churnConfig(70, workload.LowLoad(), 11),
		"churn-free": DefaultConfig(70, workload.LowLoad(), 11),
	} {
		fresh, err := New(target)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunIntervals(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := dirty.Rebuild(target); err != nil {
			t.Fatal(err)
		}
		got, err := dirty.RunIntervals(context.Background(), 10)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s rebuild diverged from fresh construction", name)
		}
		if fresh.failures != dirty.failures || fresh.appsLost != dirty.appsLost {
			t.Errorf("%s rebuild counters (%d,%d) != fresh (%d,%d)", name,
				dirty.failures, dirty.appsLost, fresh.failures, fresh.appsLost)
		}
		// Leave the arena dirty again for the next target.
		if _, err := dirty.RunIntervals(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManualInjectionUnderChurnHonorsDeadlines: a targeted FailServer
// during a churned run must hold the server down for an exponential
// ~MTTR like any stochastic failure (not auto-repair at the next
// interval), and a manual Repair must re-arm the time-to-failure (not
// re-crash the server on its stale, already-passed deadline).
func TestManualInjectionUnderChurnHonorsDeadlines(t *testing.T) {
	cfg := DefaultConfig(60, workload.LowLoad(), 23)
	// Astronomically long repair: if the manual failure below were
	// auto-repaired at the next boundary the test catches it; the odds
	// of a legitimate sub-4-interval exponential draw at this mean are
	// ~exp(-something tiny), i.e. zero for any seed.
	cfg.MTBF = 1e9 * Tau
	cfg.MTTR = 1e9 * Tau
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	victim := c.Servers()[7]
	if _, _, err := c.FailServer(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if !c.Failed(victim.ID()) {
		t.Fatal("manually failed server auto-repaired despite an ~10^9 τ MTTR")
	}
	// Manual repair: with an ~10^9 τ MTBF the rejoiner must not crash
	// again on a stale deadline.
	if err := c.Repair(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if c.Failed(victim.ID()) {
		t.Fatal("manually repaired server re-crashed on its stale failure deadline")
	}
}

// TestChurnDisabledDrawsNothing: a churn-free run must not touch the
// churn stream or inject anything — its digest is pinned separately by
// the golden tests; here the direct counters are asserted.
func TestChurnDisabledDrawsNothing(t *testing.T) {
	c := mustCluster(t, 60, workload.LowLoad(), 9)
	sts, err := c.RunIntervals(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	var failures, repairs, replaced, lost int
	for _, st := range sts {
		failures += st.Failures
		repairs += st.Repairs
		replaced += st.AppsReplaced
		lost += st.AppsLost
	}
	if failures != 0 || repairs != 0 || replaced != 0 || lost != 0 {
		t.Fatalf("churn-free run injected failures: %d/%d/%d/%d", failures, repairs, replaced, lost)
	}
}
