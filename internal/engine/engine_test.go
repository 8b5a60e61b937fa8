package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/workload"
)

// panelSpec is a small but non-trivial panel sweep: two sizes, both
// bands, two seeds.
func panelSpec(sizes ...int) SweepSpec {
	spec := SweepSpec{Sizes: sizes, Bands: []string{"low", "high"}, Seeds: []uint64{DefaultSeed, DefaultSeed + 1}}
	spec.Intervals = 8
	return spec
}

// runOne runs one scenario as a one-cell sweep, the path the service and
// ealb-sim take, and returns the cell's result.
func runOne(ctx context.Context, p *Pool, s Scenario) (Result, error) {
	ex, err := SweepSpec{Scenario: s}.Expand()
	if err != nil {
		return Result{}, err
	}
	res, err := p.RunExpandedHooked(ctx, ex, RunHooks{})
	if err != nil {
		return Result{}, err
	}
	return res.Cells[0], nil
}

// TestParallelSweepMatchesSerial is the engine's core guarantee: the same
// sweep on one worker and on many workers yields byte-identical results.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, err := NewPool(1).RunSweep(context.Background(), panelSpec(40, 60))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := NewPool(workers).RunSweep(context.Background(), panelSpec(40, 60))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("sweep on %d workers differs from serial sweep", workers)
		}
		// Byte-level check on the encoded form, which is what the
		// service records and the renderers consume.
		if got, _ := json.Marshal(parallel); string(got) != string(want) {
			t.Fatalf("encoded sweep on %d workers differs from serial", workers)
		}
	}
}

func TestSweepAccountsEnergy(t *testing.T) {
	p := NewPool(2)
	spec := panelSpec(40)
	spec.Bands = []string{"low"}
	res, err := p.RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, c := range res.Cells {
		want += c.Cluster.Energy
	}
	st := p.Stats()
	if st.SimulatedJoules != want {
		t.Errorf("SimulatedJoules = %v, want %v", st.SimulatedJoules, want)
	}
	if st.JobsCompleted != 2 || st.JobsFailed != 0 || st.QueueDepth != 0 {
		t.Errorf("unexpected job counters: %+v", st)
	}
}

func TestMapReportsLowestIndexedError(t *testing.T) {
	p := NewPool(4)
	boom := errors.New("boom")
	err := p.Map(context.Background(), 10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 3") {
		t.Fatalf("Map error = %v, want the job 3 error", err)
	}
	if got := p.Stats().JobsFailed; got != 2 {
		t.Errorf("JobsFailed = %d, want 2", got)
	}
}

// TestPoolBoundIsPoolWide: the worker bound must hold across concurrent
// Map calls on a shared pool (the ealb-serve usage), not per call.
func TestPoolBoundIsPoolWide(t *testing.T) {
	p := NewPool(2)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Map(context.Background(), 3, func(int) error {
				n := cur.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Errorf("observed %d concurrent jobs on a 2-worker pool", got)
	}
	if st := p.Stats(); st.JobsCompleted != 12 {
		t.Errorf("JobsCompleted = %d, want 12", st.JobsCompleted)
	}
}

func TestMapRecoversPanics(t *testing.T) {
	err := NewPool(2).Map(context.Background(), 2, func(i int) error {
		if i == 1 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Map error = %v, want recovered panic", err)
	}
}

func TestRunScenarioClusterDefaults(t *testing.T) {
	p := NewPool(2)
	res, err := runOne(context.Background(), p, Scenario{Kind: KindCluster, Size: 50, Intervals: 5, CompareBaseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster == nil || len(res.Cluster.Stats) != 5 {
		t.Fatalf("cluster result missing or wrong length: %+v", res.Cluster)
	}
	if res.Scenario.SeedValue() != DefaultSeed || res.Scenario.Band != "low" || res.Scenario.Sleep != "auto" {
		t.Errorf("defaults not normalized: %+v", res.Scenario)
	}
	if res.AlwaysOnJoules <= 0 {
		t.Errorf("baseline comparison missing: %+v", res)
	}
	if res.JoulesSaved != res.AlwaysOnJoules-res.Cluster.Energy {
		t.Errorf("JoulesSaved = %v, want %v", res.JoulesSaved, res.AlwaysOnJoules-res.Cluster.Energy)
	}
	if st := p.Stats(); st.RunsCompleted != 1 || st.JoulesSaved != res.JoulesSaved {
		t.Errorf("pool counters: %+v", st)
	}
}

// TestScenarioMatchesDirectRun: a scenario run must be bit-identical to
// calling the underlying experiment runner directly.
func TestScenarioMatchesDirectRun(t *testing.T) {
	res, err := runOne(context.Background(), NewPool(4), Scenario{Size: 60, Band: "high", Seed: SeedOf(7), Intervals: 6, Sleep: "c6"})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunCluster(context.Background(), 60, workload.HighLoad(), 7, 6, func(c *cluster.Config) {
		c.Sleep = cluster.SleepC6Only
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*res.Cluster, direct) {
		t.Error("scenario run differs from direct RunCluster")
	}
}

func TestRunScenarioPolicyProfiles(t *testing.T) {
	p := NewPool(4)
	for _, profile := range workload.ProfileNames() {
		res, err := runOne(context.Background(), p, Scenario{
			Kind: KindPolicy, Profile: profile, Servers: 40, HorizonSeconds: 600,
		})
		if err != nil {
			t.Fatalf("profile %q: %v", profile, err)
		}
		if len(res.Policies) == 0 {
			t.Fatalf("profile %q: no policy results", profile)
		}
		for _, pr := range res.Policies {
			if pr.Energy <= 0 {
				t.Errorf("profile %q policy %q: no energy simulated", profile, pr.Policy)
			}
		}
	}
}

// TestPolicyCountersAtMaxRate: at the largest rate a policy scenario
// accepts, each policy's drop total is past 2³¹ and must read the same
// on every word size; an int sum wrapped to 1,706,023,232 on 386.
func TestPolicyCountersAtMaxRate(t *testing.T) {
	var s Scenario
	if err := json.Unmarshal([]byte(`{"kind":"policy","base_rate":1e7,"servers":10,"horizon_seconds":600}`), &s); err != nil {
		t.Fatal(err)
	}
	res, err := runOne(context.Background(), NewPool(1), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) == 0 {
		t.Fatal("no policy results")
	}
	for _, pr := range res.Policies {
		if pr.Dropped != 6_000_990_528 || pr.Served != 600_000 {
			t.Errorf("%s: dropped=%d served=%d, want 6000990528 and 600000", pr.Policy, pr.Dropped, pr.Served)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Kind: "quantum"},
		{Kind: KindCluster, Size: 1, Intervals: 5, Band: "low", Sleep: "auto", Seed: SeedOf(1)},
		{Kind: KindCluster, Size: 50, Intervals: 5, Band: "sideways", Sleep: "auto", Seed: SeedOf(1)},
		{Kind: KindCluster, Size: 50, Intervals: 5, Band: "low", Sleep: "perchance", Seed: SeedOf(1)},
		{Kind: KindPolicy, Profile: "nosuch", BaseRate: 1, PeakRate: 1, Seed: SeedOf(1)},
		// One network request must not buy an unbounded simulation.
		{Kind: KindCluster, Size: MaxScenarioSize + 1, Intervals: 5, Band: "low", Sleep: "auto", Seed: SeedOf(1)},
		{Kind: KindCluster, Size: 50, Intervals: MaxScenarioIntervals + 1, Band: "low", Sleep: "auto", Seed: SeedOf(1)},
		{Kind: KindPolicy, Profile: "burst", BaseRate: 1, PeakRate: 1, Seed: SeedOf(1), Servers: MaxScenarioServers + 1},
		{Kind: KindPolicy, Profile: "burst", BaseRate: 1, PeakRate: 1, Seed: SeedOf(1), HorizonSeconds: float64(MaxScenarioHorizon) + 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("scenario %d (%+v) unexpectedly valid", i, s)
		}
	}
	if _, err := runOne(context.Background(), NewPool(1), Scenario{Kind: "quantum"}); err == nil {
		t.Error("a one-cell sweep accepted an invalid scenario")
	}
}

func TestParseBand(t *testing.T) {
	if b, err := ParseBand("0.25-0.45"); err != nil || b.Lo != 0.25 || b.Hi != 0.45 {
		t.Errorf("ParseBand custom = %v, %v", b, err)
	}
	if b, _ := ParseBand("HIGH"); b != workload.HighLoad() {
		t.Errorf("ParseBand high = %v", b)
	}
	if _, err := ParseBand("0.9-0.1"); err == nil {
		t.Error("inverted band accepted")
	}
}
