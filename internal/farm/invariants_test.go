package farm

import (
	"context"
	"math"
	"testing"

	"ealb/internal/server"
	"ealb/internal/workload"
)

// TestFarmConservation extends the cluster-level conservation suite
// (internal/cluster/invariants_test.go) to the federated farm: after K
// intervals of dispatch + migration + consolidation, every application
// exists on exactly one server of exactly one cluster, the population
// equals the initial population plus the front-end's admissions, and
// total demand is double-entry consistent — the sum of per-server raw
// demands equals the sum of the demands of the hosted application
// population (demand values themselves evolve each interval, with
// recorded resets; what conservation asserts is that no application is
// ever duplicated or dropped by dispatch or the leader protocols).
func TestFarmConservation(t *testing.T) {
	for _, dispatch := range []DispatchPolicy{DispatchRoundRobin, DispatchLeastLoaded, DispatchEnergyHeadroom} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := DefaultConfig(3, 70, workload.LowLoad(), seed)
			cfg.Dispatch = dispatch
			cfg.ArrivalRate = 5
			admits := countAdmits(&cfg)
			f := mustFarm(t, cfg)

			before := 0
			for _, c := range f.Clusters() {
				for _, s := range c.Servers() {
					before += s.NumApps()
				}
			}

			sts, err := f.RunIntervals(context.Background(), 20, testRunner{4})
			if err != nil {
				t.Fatalf("dispatch %v seed %d: %v", dispatch, seed, err)
			}

			seen := make(map[*server.App]struct{})
			after := 0
			admitted := admits.total()
			var appDemand, serverDemand float64
			for ci, c := range f.Clusters() {
				for _, s := range c.Servers() {
					if s.Sleeping() && s.NumApps() != 0 {
						t.Fatalf("dispatch %v seed %d: sleeping server %d of cluster %d hosts %d apps",
							dispatch, seed, s.ID(), ci, s.NumApps())
					}
					serverDemand += float64(s.RawDemand())
					for _, h := range s.Hosted() {
						if h.App == nil || h.VM == nil {
							t.Fatalf("dispatch %v seed %d: nil hosted pair on cluster %d server %d",
								dispatch, seed, ci, s.ID())
						}
						if _, dup := seen[h.App]; dup {
							t.Fatalf("dispatch %v seed %d: app %d hosted twice across the farm",
								dispatch, seed, h.App.ID)
						}
						seen[h.App] = struct{}{}
						appDemand += float64(h.App.Demand)
						after++
					}
				}
			}

			if after != before+admitted {
				t.Fatalf("dispatch %v seed %d: app population %d != initial %d + admitted %d",
					dispatch, seed, after, before, admitted)
			}
			var streamed int
			for _, st := range sts {
				streamed += st.Dispatched
			}
			if admitted != streamed {
				t.Fatalf("dispatch %v seed %d: clusters admitted %d but the interval stream dispatched %d",
					dispatch, seed, admitted, streamed)
			}
			// Double-entry demand check: server-side sums and app-side
			// sums count the same population (ordered summation differs,
			// so allow float slack proportional to the population).
			if diff := math.Abs(appDemand - serverDemand); diff > 1e-9*float64(after+1) {
				t.Fatalf("dispatch %v seed %d: demand mismatch apps=%v servers=%v",
					dispatch, seed, appDemand, serverDemand)
			}
		}
	}
}
