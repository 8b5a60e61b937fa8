package cluster

import (
	"context"
	"math"
	"testing"

	"ealb/internal/workload"
)

// TestProtocolInvariantsAcrossSeeds sweeps seeds and both load bands and
// checks the conservation and sanity properties that must hold on every
// run, regardless of random stream:
//
//  1. servers are partitioned: awake regime counts + sleeping = size;
//  2. sleeping servers host nothing;
//  3. application count is conserved (the protocol migrates, never
//     creates or destroys);
//  4. per-interval ratios are finite and non-negative;
//  5. energy increases monotonically and every interval costs energy;
//  6. cluster load stays a valid fraction.
func TestProtocolInvariantsAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, band := range []workload.Band{workload.LowLoad(), workload.HighLoad()} {
			seed, band := seed, band
			c := mustCluster(t, 90, band, seed)

			appsBefore := 0
			for _, s := range c.Servers() {
				appsBefore += s.NumApps()
			}

			var prevEnergy float64
			sts, err := c.RunIntervals(context.Background(), 25)
			if err != nil {
				t.Fatalf("seed %d band %v: %v", seed, band, err)
			}
			var cumulative float64
			for i, st := range sts {
				total := st.Sleeping
				for _, n := range st.Regimes {
					total += n
				}
				if total != 90 {
					t.Fatalf("seed %d interval %d: partition broken, %d servers accounted", seed, i, total)
				}
				if math.IsNaN(st.Ratio) || math.IsInf(st.Ratio, 0) || st.Ratio < 0 {
					t.Fatalf("seed %d interval %d: ratio %v", seed, i, st.Ratio)
				}
				if st.IntervalEnergy <= 0 {
					t.Fatalf("seed %d interval %d: non-positive interval energy %v", seed, i, st.IntervalEnergy)
				}
				cumulative += float64(st.IntervalEnergy)
				if cumulative < prevEnergy {
					t.Fatalf("seed %d interval %d: energy went backwards", seed, i)
				}
				prevEnergy = cumulative
				if float64(st.ClusterLoad) < 0 || float64(st.ClusterLoad) > 1 {
					t.Fatalf("seed %d interval %d: cluster load %v", seed, i, st.ClusterLoad)
				}
				if st.Decisions.Local < 0 || st.Decisions.InCluster < 0 {
					t.Fatalf("seed %d interval %d: negative decisions %+v", seed, i, st.Decisions)
				}
				if st.Migrations > st.Decisions.InCluster {
					t.Fatalf("seed %d interval %d: %d migrations but only %d in-cluster decisions",
						seed, i, st.Migrations, st.Decisions.InCluster)
				}
			}

			appsAfter := 0
			for _, s := range c.Servers() {
				if s.Sleeping() && s.NumApps() != 0 {
					t.Fatalf("seed %d: sleeping server %d hosts %d apps", seed, s.ID(), s.NumApps())
				}
				appsAfter += s.NumApps()
			}
			if appsAfter != appsBefore {
				t.Fatalf("seed %d band %v: app count changed %d -> %d", seed, band, appsBefore, appsAfter)
			}
		}
	}
}

// TestVMsFollowApps checks that after heavy churn every hosted pair is
// consistent: the VM exists and its host's lookup agrees.
func TestVMsFollowApps(t *testing.T) {
	c := mustCluster(t, 120, workload.HighLoad(), 5)
	if _, err := c.RunIntervals(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Servers() {
		for _, h := range s.Hosted() {
			if h.VM == nil || h.App == nil {
				t.Fatalf("server %d hosts a nil pair", s.ID())
			}
			if got, ok := s.Lookup(h.App.ID); !ok || got.VM != h.VM {
				t.Errorf("server %d: lookup inconsistent for app %d", s.ID(), h.App.ID)
			}
		}
	}
}

// TestReservationsCoverDemandEventually checks the vertical-scaling
// invariant: an app that grew beyond its reservation on a healthy server
// has been re-provisioned by the end of the interval in which it grew
// (reservations may only lag on overloaded servers that found no target).
func TestReservationsCoverDemandEventually(t *testing.T) {
	c := mustCluster(t, 100, workload.LowLoad(), 21)
	if _, err := c.RunIntervals(context.Background(), 30); err != nil {
		t.Fatal(err)
	}
	lagging := 0
	total := 0
	for _, s := range c.Servers() {
		for _, h := range s.Hosted() {
			total++
			if h.App.NeedsVerticalScale() {
				lagging++
			}
		}
	}
	if total == 0 {
		t.Fatal("no apps left")
	}
	// At 30% load servers are rarely overloaded, so lagging reservations
	// must be a rare exception.
	if float64(lagging)/float64(total) > 0.02 {
		t.Errorf("%d/%d apps have demand above reservation at low load", lagging, total)
	}
}
