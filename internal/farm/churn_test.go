package farm

import (
	"context"
	"encoding/json"
	"testing"

	"ealb/internal/cluster"
	"ealb/internal/workload"
)

// churnConfig returns a farm whose member clusters all run an aggressive
// failure–repair process.
func churnConfig(clusters, size int, band workload.Band, seed uint64) Config {
	cfg := DefaultConfig(clusters, size, band, seed)
	cfg.Cluster.MTBF = 20 * cluster.Tau
	cfg.Cluster.MTTR = 5 * cluster.Tau
	return cfg
}

// TestFarmChurnSerialMatchesParallel: per-cluster churn streams derive
// from each cluster's own seed, so a churned farm advanced on a worker
// pool must stay byte-identical to the serial loop.
func TestFarmChurnSerialMatchesParallel(t *testing.T) {
	cfg := churnConfig(3, 60, workload.LowLoad(), 13)
	serial, err := mustFarm(t, cfg).RunIntervals(context.Background(), 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := mustFarm(t, cfg).RunIntervals(context.Background(), 15, testRunner{8})
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Fatal("churned 8-worker run differs from serial")
	}
}

// TestFarmChurnAggregates: the farm interval stream must sum its
// clusters' churn fields exactly, report a consistent availability, and
// reconcile with the cumulative accessors.
func TestFarmChurnAggregates(t *testing.T) {
	cfg := churnConfig(3, 50, workload.LowLoad(), 17)
	f := mustFarm(t, cfg)
	sts, err := f.RunIntervals(context.Background(), 20, testRunner{4})
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Clusters * cfg.Cluster.Size
	var failures, repairs, replaced, lost int
	for _, st := range sts {
		var cf, cr, crep, cl, cfc int
		for _, cs := range st.Clusters {
			cf += cs.Failures
			cr += cs.Repairs
			crep += cs.AppsReplaced
			cl += cs.AppsLost
			cfc += cs.FailedCount
		}
		if st.Failures != cf || st.Repairs != cr || st.AppsReplaced != crep ||
			st.AppsLost != cl || st.FailedCount != cfc {
			t.Fatalf("interval %d: farm churn fields (%d,%d,%d,%d,%d) != cluster sums (%d,%d,%d,%d,%d)",
				st.Index, st.Failures, st.Repairs, st.AppsReplaced, st.AppsLost, st.FailedCount,
				cf, cr, crep, cl, cfc)
		}
		if st.Availability == nil {
			t.Fatalf("interval %d: churned farm omitted availability", st.Index)
		}
		if want := float64(total-st.FailedCount) / float64(total); *st.Availability != want {
			t.Fatalf("interval %d: availability %v != %v", st.Index, *st.Availability, want)
		}
		failures += st.Failures
		repairs += st.Repairs
		replaced += st.AppsReplaced
		lost += st.AppsLost
	}
	if failures == 0 || repairs == 0 {
		t.Fatalf("churned farm saw %d failures, %d repairs; want both > 0", failures, repairs)
	}
	if replaced+lost == 0 {
		t.Fatalf("%d failures orphaned nothing", failures)
	}
}

// TestFarmChurnConservation extends the farm conservation invariant to
// churned runs: surviving + lost == seeded + admitted, and no surviving
// application sits on a failed or sleeping server.
func TestFarmChurnConservation(t *testing.T) {
	cfg := churnConfig(2, 60, workload.LowLoad(), 19)
	cfg.ArrivalRate = 4
	admits := countAdmits(&cfg)
	f := mustFarm(t, cfg)
	seeded := 0
	for _, c := range f.Clusters() {
		for _, s := range c.Servers() {
			seeded += s.NumApps()
		}
	}
	sts, err := f.RunIntervals(context.Background(), 25, testRunner{4})
	if err != nil {
		t.Fatal(err)
	}
	lost, dispatched := 0, 0
	for _, st := range sts {
		lost += st.AppsLost
		dispatched += st.Dispatched
	}
	surviving, admitted := 0, admits.total()
	if admitted != dispatched {
		t.Fatalf("clusters admitted %d but the interval stream dispatched %d", admitted, dispatched)
	}
	for ci, c := range f.Clusters() {
		for _, s := range c.Servers() {
			if n := s.NumApps(); n > 0 && (c.Failed(s.ID()) || s.Sleeping()) {
				t.Fatalf("cluster %d server %d hosts %d apps while failed/sleeping", ci, s.ID(), n)
			}
			surviving += s.NumApps()
		}
	}
	if surviving+lost != seeded+admitted {
		t.Fatalf("surviving %d + lost %d != seeded %d + admitted %d",
			surviving, lost, seeded, admitted)
	}
}
