package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/workload"
)

func mustCluster(t *testing.T, size int, band workload.Band, seed uint64) *Cluster {
	t.Helper()
	c, err := New(DefaultConfig(size, band, seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(100, workload.LowLoad(), 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Size = 1 },
		func(c *Config) { c.InitialLoad = workload.Band{Lo: 0.9, Hi: 0.1} },
		func(c *Config) { c.MTBF = -1 },
		func(c *Config) { c.MTBF, c.MTTR = 600, 0 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig(100, workload.LowLoad(), 1)
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestConfigValidateRejectsNaN: every float range check must fail on
// NaN.
func TestConfigValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"MTBF", func(c *Config) { c.MTBF = units.Seconds(nan) }},
		{"MTTR", func(c *Config) { c.MTTR = units.Seconds(nan) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(100, workload.LowLoad(), 1)
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestNewPopulation(t *testing.T) {
	c := mustCluster(t, 50, workload.LowLoad(), 7)
	if len(c.Servers()) != 50 {
		t.Fatalf("got %d servers", len(c.Servers()))
	}
	for _, s := range c.Servers() {
		if s.Sleeping() {
			t.Error("all servers must start awake (C0, per §4)")
		}
		if s.NumApps() == 0 {
			t.Errorf("server %d has no applications", s.ID())
		}
		load := s.Load()
		// Initial loads land in or slightly under the band (the app-size
		// decomposition may undershoot by less than one minimum app).
		if load < units.Fraction(0.20-0.05) || load >= 0.40 {
			t.Errorf("server %d initial load %v outside expected range", s.ID(), load)
		}
	}
	got := c.ClusterLoad()
	if got < 0.25 || got > 0.35 {
		t.Errorf("cluster load %v, want ~0.30", got)
	}
}

func TestDeterminism(t *testing.T) {
	a := mustCluster(t, 60, workload.LowLoad(), 99)
	b := mustCluster(t, 60, workload.LowLoad(), 99)
	sa, err := a.RunIntervals(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunIntervals(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			// IntervalStats is comparable (no slices/maps).
			t.Fatalf("interval %d diverged:\n%+v\n%+v", i, sa[i], sb[i])
		}
	}
	if a.TotalEnergy() != b.TotalEnergy() {
		t.Error("energy accounts diverged across identical seeds")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := mustCluster(t, 60, workload.LowLoad(), 1)
	b := mustCluster(t, 60, workload.LowLoad(), 2)
	sa, _ := a.RunIntervals(context.Background(), 5)
	sb, _ := b.RunIntervals(context.Background(), 5)
	same := true
	for i := range sa {
		if sa[i].Decisions != sb[i].Decisions {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical decision streams")
	}
}

func TestWorkloadConservation(t *testing.T) {
	// Migrations move demand around; total demand only changes through
	// bounded evolution. Leader passes alone, with no demand evolution,
	// conserve total load exactly across any number of passes.
	c := mustCluster(t, 80, workload.LowLoad(), 5)
	var before float64
	for _, s := range c.Servers() {
		before += float64(s.RawDemand())
	}
	for range 10 {
		if _, err := c.balance(); err != nil {
			t.Fatal(err)
		}
	}
	var after float64
	for _, s := range c.Servers() {
		after += float64(s.RawDemand())
	}
	if math.Abs(before-after) > 1e-6 {
		t.Errorf("total demand changed %v -> %v with evolution disabled", before, after)
	}
	// Apps are conserved too.
	apps := 0
	for _, s := range c.Servers() {
		apps += s.NumApps()
	}
	if apps == 0 {
		t.Fatal("apps vanished")
	}
}

func TestLowLoadConsolidatesHighLoadDoesNot(t *testing.T) {
	low := mustCluster(t, 100, workload.LowLoad(), 11)
	if _, err := low.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	high := mustCluster(t, 100, workload.HighLoad(), 11)
	if _, err := high.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if low.SleepingCount() == 0 {
		t.Error("30% load must put servers to sleep (Table 2)")
	}
	if high.SleepingCount() != 0 {
		t.Errorf("70%% load must keep all servers awake (Table 2), got %d asleep", high.SleepingCount())
	}
}

func TestSleepNeverKeepsAllAwake(t *testing.T) {
	cfg := DefaultConfig(80, workload.LowLoad(), 3)
	cfg.Sleep = SleepNever
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	if c.SleepingCount() != 0 {
		t.Error("SleepNever must not sleep any server")
	}
}

func TestSleepSavesEnergy(t *testing.T) {
	// The headline claim: consolidation + sleep uses less energy than the
	// always-on baseline under the same workload.
	cfgA := DefaultConfig(100, workload.LowLoad(), 17)
	cfgB := cfgA
	cfgB.Sleep = SleepNever
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy() >= b.TotalEnergy() {
		t.Errorf("energy-aware %v must beat always-on %v", a.TotalEnergy(), b.TotalEnergy())
	}
	savings := 1 - float64(a.TotalEnergy())/float64(b.TotalEnergy())
	if savings < 0.05 {
		t.Errorf("savings %.1f%% implausibly small for a 30%%-loaded cluster", savings*100)
	}
}

func TestBalanceImprovesRegimeDistribution(t *testing.T) {
	c := mustCluster(t, 200, workload.LowLoad(), 23)
	before := c.RegimeCounts()
	if _, err := c.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	after := c.RegimeCounts()
	awakeAfter := 0
	for _, n := range after {
		awakeAfter += n
	}
	// The majority of awake servers end in R2–R4 (Figure 2's shape) and
	// the optimal share grows.
	inOpt := func(counts [5]int) float64 {
		tot := 0
		for _, n := range counts {
			tot += n
		}
		if tot == 0 {
			return 0
		}
		return float64(counts[1]+counts[2]+counts[3]) / float64(tot)
	}
	if inOpt(after) < inOpt(before) {
		t.Errorf("balancing must not worsen the R2-R4 share: before %v after %v", before, after)
	}
	if inOpt(after) < 0.85 {
		t.Errorf("after balancing %.0f%%%% in R2-R4, want >85%% (paper: ~96%%)", inOpt(after)*100)
	}
	undesirable := float64(after[0]+after[4]) / float64(awakeAfter)
	if undesirable > 0.15 {
		t.Errorf("undesirable share %.1f%% too large after balancing", undesirable*100)
	}
}

func TestCrossoverAsymmetry(t *testing.T) {
	// §5: local decisions become dominant after ~20 intervals at 30% load
	// and ~5 intervals at 70% load. Verify high-load crossover comes
	// sooner and both settle below 1.
	crossover := func(band workload.Band) (int, float64) {
		c := mustCluster(t, 400, band, 31)
		st, err := c.RunIntervals(context.Background(), 40)
		if err != nil {
			t.Fatal(err)
		}
		// Durable dominance: five consecutive intervals below 1.
		cross := 40
		for i := 0; i+4 < len(st); i++ {
			below := true
			for j := i; j < i+5; j++ {
				if st[j].Ratio >= 1 {
					below = false
					break
				}
			}
			if below {
				cross = i + 1
				break
			}
		}
		var lateSum float64
		for _, s := range st[30:] {
			lateSum += s.Ratio
		}
		return cross, lateSum / 10
	}
	lowCross, lowLate := crossover(workload.LowLoad())
	highCross, highLate := crossover(workload.HighLoad())
	if highCross >= lowCross {
		t.Errorf("high-load crossover (%d) must come before low-load (%d)", highCross, lowCross)
	}
	if highCross > 8 {
		t.Errorf("high-load crossover at %d, want within ~5 intervals", highCross)
	}
	if lowLate >= 1 || highLate >= 1 {
		t.Errorf("late ratios must be below 1: low %v high %v", lowLate, highLate)
	}
}

func TestEarlyInClusterDominance(t *testing.T) {
	c := mustCluster(t, 400, workload.HighLoad(), 37)
	st, err := c.RunIntervals(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Ratio <= 1 {
		t.Errorf("first interval at 70%% load must be migration-heavy, ratio %v", st[0].Ratio)
	}
}

func TestRunIntervalsInvalidCount(t *testing.T) {
	c := mustCluster(t, 20, workload.LowLoad(), 1)
	if _, err := c.RunIntervals(context.Background(), 0); err == nil {
		t.Error("zero intervals must error")
	}
	if _, err := c.RunIntervals(context.Background(), -3); err == nil {
		t.Error("negative intervals must error")
	}
}

func TestClockAndEnergyAdvance(t *testing.T) {
	c := mustCluster(t, 20, workload.LowLoad(), 1)
	if c.Now() != 0 {
		t.Error("clock must start at 0")
	}
	st, err := c.RunIntervals(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Now() != 3*Tau {
		t.Errorf("clock = %v, want %v", c.Now(), 3*Tau)
	}
	if c.Interval() != 3 {
		t.Errorf("interval = %d, want 3", c.Interval())
	}
	if c.TotalEnergy() <= 0 {
		t.Error("energy must accumulate")
	}
	for i, s := range st {
		if s.IntervalEnergy <= 0 {
			t.Errorf("interval %d energy %v must be positive", i, s.IntervalEnergy)
		}
		if s.EndTime != units.Seconds(i+1)*Tau {
			t.Errorf("interval %d end time %v", i, s.EndTime)
		}
	}
}

// TestIntervalEnergyAfterMutators: an interval takes the last
// interval's end energy as its start sum, so each public mutator that
// may run between intervals must drop that cached sum. The next
// IntervalEnergy must then be, bit for bit, the end sum minus a
// TotalEnergy read just before the interval.
func TestIntervalEnergyAfterMutators(t *testing.T) {
	const victim server.ID = 3
	for _, tc := range []struct {
		name    string
		charges bool // the mutator changes TotalEnergy
		mutate  func(c *Cluster) error
	}{
		{"none", false, func(*Cluster) error { return nil }},
		{"FailServer", true, func(c *Cluster) error {
			replaced, _, err := c.FailServer(victim)
			if err == nil && replaced == 0 {
				err = fmt.Errorf("server %d had nothing to re-place", victim)
			}
			return err
		}},
		{"Repair", false, func(c *Cluster) error { return c.Repair(victim) }},
		{"Admit", true, func(c *Cluster) error {
			_, ok, err := c.Admit(0.1)
			if err == nil && !ok {
				err = fmt.Errorf("admission refused")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := mustCluster(t, 60, workload.HighLoad(), 7)
			if tc.name == "Repair" {
				if _, _, err := c.FailServer(victim); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.RunIntervals(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			end := c.TotalEnergy()
			if err := tc.mutate(c); err != nil {
				t.Fatal(err)
			}
			e := c.TotalEnergy()
			if tc.charges && e == end {
				t.Fatalf("%s charged no energy; the test shows nothing", tc.name)
			}
			sts, err := c.RunIntervals(context.Background(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sts[0].IntervalEnergy, c.TotalEnergy()-e; got != want {
				t.Errorf("IntervalEnergy = %v, want %v (end sum minus the total before the interval)", got, want)
			}
		})
	}
}

func TestSleepingServersAreEmpty(t *testing.T) {
	c := mustCluster(t, 150, workload.LowLoad(), 13)
	if _, err := c.RunIntervals(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Servers() {
		if s.Sleeping() && s.NumApps() != 0 {
			t.Errorf("sleeping server %d still hosts %d apps", s.ID(), s.NumApps())
		}
	}
}

func TestSixtyPercentRule(t *testing.T) {
	// At 30% cluster load consolidation must use C6 (deep sleep), per §6.
	c := mustCluster(t, 150, workload.LowLoad(), 19)
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	foundC6 := false
	for _, s := range c.Servers() {
		if s.Sleeping() {
			if s.CState().String() == "C6" {
				foundC6 = true
			}
		}
	}
	if !foundC6 {
		t.Error("at 30% load the 60% rule must choose C6")
	}
}

func TestForcedC3Policy(t *testing.T) {
	cfg := DefaultConfig(150, workload.LowLoad(), 19)
	cfg.Sleep = SleepC3Only
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Servers() {
		if s.Sleeping() && s.CState().String() != "C3" {
			t.Errorf("C3-only policy parked server %d in %v", s.ID(), s.CState())
		}
	}
}

func TestConservativeConsolidationSleepsFewer(t *testing.T) {
	base := DefaultConfig(300, workload.LowLoad(), 41)
	cons := base
	cons.ConservativeConsolidation = true
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	if b.SleepingCount() >= a.SleepingCount() {
		t.Errorf("conservative consolidation (%d asleep) must sleep fewer than default (%d)",
			b.SleepingCount(), a.SleepingCount())
	}
}

func TestRegimeCountsExcludeSleeping(t *testing.T) {
	c := mustCluster(t, 150, workload.LowLoad(), 43)
	if _, err := c.RunIntervals(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	counts := c.RegimeCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total+c.SleepingCount() != 150 {
		t.Errorf("awake (%d) + sleeping (%d) != cluster size", total, c.SleepingCount())
	}
}

func TestSleepPolicyString(t *testing.T) {
	want := map[SleepPolicy]string{
		SleepAuto:   "auto(60%-rule)",
		SleepC3Only: "c3-only",
		SleepC6Only: "c6-only",
		SleepNever:  "never",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if SleepPolicy(9).String() != "SleepPolicy(9)" {
		t.Error("unknown policy must render with value")
	}
}

func TestBalanceSinglePass(t *testing.T) {
	// Balance runs one leader pass without demand evolution: regime
	// distribution must not get worse and workload is conserved exactly.
	c := mustCluster(t, 120, workload.LowLoad(), 61)
	var before float64
	for _, s := range c.Servers() {
		before += float64(s.RawDemand())
	}
	r3Before := c.RegimeCounts()[2]
	if _, err := c.balance(); err != nil {
		t.Fatal(err)
	}
	var after float64
	for _, s := range c.Servers() {
		after += float64(s.RawDemand())
	}
	if math.Abs(before-after) > 1e-9 {
		t.Errorf("Balance changed total demand %v -> %v", before, after)
	}
	if c.RegimeCounts()[2] < r3Before {
		t.Errorf("Balance reduced the optimal-region population %d -> %d", r3Before, c.RegimeCounts()[2])
	}
	// A single pass at 30% load already consolidates some servers.
	if c.SleepingCount() == 0 {
		t.Error("Balance at 30% load must start consolidating")
	}
}

func TestIntervalCostEvaluations(t *testing.T) {
	c := mustCluster(t, 60, workload.LowLoad(), 71)
	sts, err := c.RunIntervals(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st.AvgQCost <= 0 || st.AvgPCost <= 0 || st.AvgJCost <= 0 {
			t.Fatalf("interval %d: non-positive cost evaluations %+v", i, st)
		}
		// The premise of the whole scaling experiment: horizontal
		// (in-cluster) scaling costs orders of magnitude more than
		// vertical, and communication is cheap.
		if st.AvgQCost <= st.AvgPCost {
			t.Errorf("interval %d: q_k %v must exceed p_k %v", i, st.AvgQCost, st.AvgPCost)
		}
		if st.AvgJCost >= st.AvgPCost {
			t.Errorf("interval %d: j_k %v should be below p_k %v", i, st.AvgJCost, st.AvgPCost)
		}
	}
}

func TestWakeCycleUnderLoadSurge(t *testing.T) {
	// Consolidate at low load, then drive demand upward so R5 servers
	// appear with no acceptors: the leader must wake sleeping servers,
	// and a C6 wake (260 s) stays in flight across interval boundaries.
	c := mustCluster(t, 120, workload.LowLoad(), 77)
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	// The surge: before each of 30 intervals, every application on an
	// awake server grows by 0.01. Step the intervals one at a time and
	// record every server that ends one with a wake-up in flight.
	var waking []*server.Server
	seen := make([]bool, len(c.Servers()))
	wakes := 0
	for range 30 {
		for _, s := range c.Servers() {
			if s.Sleeping() {
				continue
			}
			for i := 0; i < s.NumApps(); i++ {
				s.At(i).App.Demand += 0.01
			}
			c.noteDemandChange(s)
		}
		sts, err := c.RunIntervals(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		wakes += sts[0].Woken
		for _, s := range c.Servers() {
			if !s.Sleeping() && s.CStateBusy(c.Now()) && !seen[s.ID()] {
				seen[s.ID()] = true
				waking = append(waking, s)
			}
		}
	}
	if wakes == 0 || len(waking) == 0 {
		t.Fatalf("a load surge after consolidation must leave wake-ups in flight (wakes %d, seen in flight %d)", wakes, len(waking))
	}
	// Ten more intervals (600 s) outlast the slowest wake-up: every
	// server seen waking must now be up and settled.
	if _, err := c.RunIntervals(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	for _, s := range waking {
		if s.Sleeping() || s.CStateBusy(c.Now()) {
			t.Errorf("server %d: wake still in flight at %v (ready at %v)", s.ID(), c.Now(), s.ReadyAt())
		}
	}
}

func TestStationaryLoadStaysBounded(t *testing.T) {
	// With the default stationary demand process the cluster load must
	// not inflate over a long run (the mean-reversion regression test).
	c := mustCluster(t, 150, workload.HighLoad(), 29)
	before := float64(c.ClusterLoad())
	if _, err := c.RunIntervals(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	after := float64(c.ClusterLoad())
	if after > before*1.10 {
		t.Errorf("cluster load inflated %v -> %v on a stationary workload", before, after)
	}
	if after < before*0.85 {
		t.Errorf("cluster load collapsed %v -> %v on a stationary workload", before, after)
	}
}

func TestRegimeDistributionShapeLowVsHigh(t *testing.T) {
	low := mustCluster(t, 300, workload.LowLoad(), 47)
	high := mustCluster(t, 300, workload.HighLoad(), 47)
	lc, hc := low.RegimeCounts(), high.RegimeCounts()
	// 30% initial: mass concentrated left of/in optimal (R1-R3);
	// 70% initial: mass right of/in optimal (R3-R5) — Figure 2's premise.
	if lc[3]+lc[4] != 0 {
		t.Errorf("30%% initial distribution has overloaded servers: %v", lc)
	}
	if hc[0]+hc[1] != 0 {
		t.Errorf("70%% initial distribution has underloaded servers: %v", hc)
	}
	_ = server.R1 // document linkage
}
