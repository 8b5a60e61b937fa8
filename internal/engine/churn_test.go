package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"ealb/internal/cluster"
	"ealb/internal/stats"
	"ealb/internal/workload"
)

// The churned golden digests pin the exact per-interval output of the
// reference failure scenarios, like the churn-free suites in
// internal/cluster/golden_test.go and farm_test.go pin theirs: SHA-256
// over the JSON encoding of the interval stream, identical on one
// worker and on eight. A mismatch means the churn stream allocation,
// the deadline draw order, or the failure re-placement sequence moved —
// which silently invalidates every availability panel. Re-pin only for
// intentional, called-out simulation changes, from the failure output
// of:
//
//	go test ./internal/engine -run 'TestChurnGoldenDigests/<scenario>' -v
var churnGoldenDigests = []struct {
	name     string
	scenario Scenario
	digest   string
}{
	{"size=100/low/seed=1",
		Scenario{Kind: KindCluster, Size: 100, Band: "low", Seed: SeedOf(1), Intervals: 25,
			MTBF: RateOf(1200), MTTR: RateOf(300)},
		"f363594475fe7c92e2f84bbccc31f241afb42e1fbed2ed7cf4dceedc6a743b14"},
	{"size=100/high/seed=2014",
		Scenario{Kind: KindCluster, Size: 100, Band: "high", Seed: SeedOf(2014), Intervals: 25,
			MTBF: RateOf(1200), MTTR: RateOf(300)},
		"8fbd899f62df2f4e0488a877fa0fef6450062507d877beb4d932d80843e1879f"},
}

// clusterDigest executes the scenario on a pool with the given worker
// count and hashes the JSON-encoded cluster interval stream.
func clusterDigest(t *testing.T, workers int, s Scenario) string {
	t.Helper()
	res, err := runOne(context.Background(), NewPool(workers), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster == nil {
		t.Fatalf("no cluster result: %+v", res)
	}
	raw, err := json.Marshal(res.Cluster.Stats)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestChurnGoldenDigests pins the churned cluster reference runs and the
// serial-equals-parallel contract under churn.
func TestChurnGoldenDigests(t *testing.T) {
	for _, g := range churnGoldenDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			serial := clusterDigest(t, 1, g.scenario)
			parallel := clusterDigest(t, 8, g.scenario)
			if serial != parallel {
				t.Errorf("parallel churned run diverged from serial:\n serial   %s\n parallel %s", serial, parallel)
			}
			if serial != g.digest {
				t.Errorf("digest drifted from the pinned churned run:\n got  %s\n want %s", serial, g.digest)
			}
		})
	}
}

// The federated churned digests extend the pin to a 2-cluster farm: the
// front-end dispatch, every cluster's own churn stream, and the farm
// aggregation must all reproduce exactly, serial and parallel.
var farmChurnGoldenDigests = []struct {
	name     string
	scenario Scenario
	digest   string
}{
	{"clusters=2/size=100/low/seed=1",
		Scenario{Kind: KindFarm, Clusters: 2, Size: 100, Band: "low", Seed: SeedOf(1), Intervals: 20,
			MTBF: RateOf(1200), MTTR: RateOf(300)},
		"edfad003c5364671a6626f755c21136ea3f1aa41685ab3a350dacac9c470fa62"},
	{"clusters=2/size=100/high/seed=2014",
		Scenario{Kind: KindFarm, Clusters: 2, Size: 100, Band: "high", Seed: SeedOf(2014), Intervals: 20,
			Dispatch: "least-loaded", MTBF: RateOf(1200), MTTR: RateOf(300)},
		"d8de8197526bf6f8089ac7e5893eb97a331d76566ff9de575d9c867561168208"},
}

func TestFarmChurnGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("churned federated digests run 2×100-server farms; skipped in -short mode")
	}
	for _, g := range farmChurnGoldenDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			serial := farmDigest(t, 1, g.scenario)
			parallel := farmDigest(t, 8, g.scenario)
			if serial != parallel {
				t.Errorf("parallel churned farm diverged from serial:\n serial   %s\n parallel %s", serial, parallel)
			}
			if serial != g.digest {
				t.Errorf("digest drifted from the pinned churned farm run:\n got  %s\n want %s", serial, g.digest)
			}
		})
	}
}

// TestChurnArenaReuseIsInvisible: interleaving churned and churn-free
// cells through one worker's arena cluster must leave no residual churn
// state in either direction — every result byte-identical to a fresh
// direct run.
func TestChurnArenaReuseIsInvisible(t *testing.T) {
	churn := func(c *cluster.Config) {
		c.MTBF = 15 * cluster.Tau
		c.MTTR = 4 * cluster.Tau
	}
	directPlain, err := RunCluster(context.Background(), 80, workload.LowLoad(), 5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	directChurned, err := RunCluster(context.Background(), 80, workload.LowLoad(), 5, 12, churn)
	if err != nil {
		t.Fatal(err)
	}
	if directChurned.Failures == 0 {
		t.Fatal("churned reference run saw no failures; harshen the config")
	}
	wantPlain, _ := json.Marshal(directPlain)
	wantChurned, _ := json.Marshal(directChurned)

	p := NewPool(1)
	plain := Scenario{Size: 80, Band: "low", Seed: SeedOf(5), Intervals: 12}
	churned := plain
	churned.MTBF, churned.MTTR = RateOf(15*60), RateOf(4*60) // 15τ and 4τ at τ = 60 s
	// churned → plain → churned: each rebuild starts from the other
	// kind's wreckage (failed servers, armed deadlines, counters).
	for i, c := range []struct {
		s    Scenario
		want []byte
	}{{churned, wantChurned}, {plain, wantPlain}, {churned, wantChurned}} {
		res, err := runOne(context.Background(), p, c.s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(c.want) {
			t.Errorf("arena-reused cell %d diverged from its direct run", i)
		}
	}
}

// TestChurnSweepAxes: mtbfs × mttrs expand like every other axis, cells
// carry the scalar pointers, churned groups get distinct aggregate keys,
// and the availability/lost aggregates are populated.
func TestChurnSweepAxes(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"cluster","sizes":[50],"mtbfs":[0,900],"mttrs":[240],"seeds":[1,2],"intervals":6}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sweep has %d cells, want 4", len(res.Cells))
	}
	if len(res.Aggregates) != 2 {
		t.Fatalf("sweep has %d aggregates, want 2 (one per mtbf)", len(res.Aggregates))
	}
	for i, cell := range res.Cells {
		if cell.Scenario.MTBF == nil || cell.Scenario.MTTR == nil {
			t.Fatalf("cell %d lost its churn scalars: %+v", i, cell.Scenario)
		}
		if cell.Cluster == nil {
			t.Fatalf("cell %d missing cluster run", i)
		}
	}
	// mtbf=0 cells are churn-free; mtbf=900 cells must fail something at
	// these sizes across two seeds.
	plain, churned := res.Aggregates[0], res.Aggregates[1]
	if !strings.Contains(plain.Group, "mtbf=0") || !strings.Contains(churned.Group, "mtbf=900") {
		t.Fatalf("aggregate groups = %q, %q", plain.Group, churned.Group)
	}
	if plain.Availability.Mean != 1 || plain.AppsLost.Max != 0 {
		t.Errorf("churn-free aggregate reports churn: %+v", plain)
	}
	if churned.Availability.Mean >= 1 || churned.Availability.Mean <= 0 {
		t.Errorf("churned availability mean = %v, want in (0,1)", churned.Availability.Mean)
	}
	failures := 0
	for _, cell := range res.Cells[2:] {
		failures += cell.Cluster.Failures
	}
	if failures == 0 {
		t.Error("mtbf=900 cells saw no failures")
	}

	// A churned cell re-run individually must match its sweep slot.
	single, err := runOne(context.Background(), NewPool(2), res.Cells[3].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res.Cells[3].Cluster)
	got, _ := json.Marshal(single.Cluster)
	if string(got) != string(want) {
		t.Error("sweep cell differs from its individual run")
	}
}

// TestChurnScenarioValidation: churn scalar/axis request limits.
func TestChurnScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Kind: KindCluster, MTBF: RateOf(-1)},
		{Kind: KindCluster, MTBF: RateOf(3600), MTTR: RateOf(-1)},
		{Kind: KindFarm, Clusters: 2, MTBF: RateOf(3600), MTTR: RateOf(0)},
	}
	for i, s := range bad {
		if err := s.Normalized().Validate(); err == nil {
			t.Errorf("scenario %d (%+v) unexpectedly valid", i, s)
		}
	}
	// Scalar/axis conflicts and kind mismatches.
	for _, body := range []string{
		`{"kind":"cluster","mtbf":900,"mtbfs":[900]}`,
		`{"kind":"cluster","mttr":300,"mttrs":[300]}`,
		`{"kind":"policy","mtbfs":[900]}`,
	} {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Expand(); err == nil {
			t.Errorf("body %s unexpectedly expanded", body)
		}
	}
	// An absent mttr defaults once mtbf is set; mtbf=0 stays churn-free.
	s := Scenario{Kind: KindCluster, MTBF: RateOf(3600)}.Normalized()
	if s.MTTR == nil || *s.MTTR != DefaultMTTRSeconds {
		t.Errorf("default mttr = %+v, want %v", s.MTTR, DefaultMTTRSeconds)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("defaulted churn scenario invalid: %v", err)
	}
	off := Scenario{Kind: KindCluster, MTBF: RateOf(0)}.Normalized()
	if off.MTTR != nil {
		t.Errorf("mtbf=0 grew an mttr: %+v", off.MTTR)
	}
	if err := off.Validate(); err != nil {
		t.Errorf("explicit mtbf=0 invalid: %v", err)
	}
	// mttr without mtbf is inert (the mtbf=0 baseline of an MTBF sweep
	// carries the axis's fixed mttr), not an error.
	inert := Scenario{Kind: KindCluster, Size: 40, Intervals: 3, MTTR: RateOf(300)}.Normalized()
	if err := inert.Validate(); err != nil {
		t.Fatalf("mttr with churn disabled rejected: %v", err)
	}
	res, err := runOne(context.Background(), NewPool(1), inert)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cluster.Failures != 0 || res.Cluster.Availability != 1 {
		t.Errorf("inert mttr ran churn: %+v", res.Cluster)
	}
}

// TestAggregateStdDevSemantics pins the satellite unification: the
// aggregate layer's StdDev is the sample (n−1) standard deviation from
// internal/stats, and a single-cell group reports exactly 0.
func TestAggregateStdDevSemantics(t *testing.T) {
	if st := statOf([]float64{42}); st.StdDev != 0 {
		t.Errorf("n==1 StdDev = %v, want 0", st.StdDev)
	}
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	st := statOf(xs)
	if want := stats.SampleStdDev(xs); st.StdDev != want {
		t.Errorf("statOf StdDev = %v, stats.SampleStdDev = %v", st.StdDev, want)
	}
	if pop := stats.StdDev(xs); st.StdDev == pop {
		t.Error("statOf matches the population stddev; the sample variant was chosen deliberately")
	}
	if st.Mean != stats.Mean(xs) {
		t.Errorf("statOf Mean = %v, want %v", st.Mean, stats.Mean(xs))
	}
}

// TestScenarioRefusesNonFiniteRates: NaN and infinite churn, arrival
// and policy rates, and a NaN policy horizon, are refused by Validate
// (NaN passes every `< 0` check; a NaN base rate would spin the policy
// farm's Poisson draw forever), while a finite out-of-range value keeps
// its message.
func TestScenarioRefusesNonFiniteRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		s    Scenario
		want string
	}{
		{Scenario{Kind: KindFarm, ArrivalRate: RateOf(nan)},
			"engine: farm scenario needs 0 <= arrival_rate <= 100000, got NaN"},
		{Scenario{Kind: KindFarm, ArrivalRate: RateOf(inf)},
			"engine: farm scenario needs 0 <= arrival_rate <= 100000, got +Inf"},
		{Scenario{Kind: KindFarm, ArrivalRate: RateOf(-1)},
			"engine: farm scenario needs 0 <= arrival_rate <= 100000, got -1"},
		{Scenario{Kind: KindCluster, MTBF: RateOf(nan)},
			"engine: cluster scenario needs finite mtbf/mttr, got NaN/0"},
		{Scenario{Kind: KindCluster, MTBF: RateOf(-inf)},
			"engine: cluster scenario needs finite mtbf/mttr, got -Inf/0"},
		{Scenario{Kind: KindFarm, MTBF: RateOf(600), MTTR: RateOf(nan)},
			"engine: farm scenario needs finite mtbf/mttr, got 600/NaN"},
		{Scenario{Kind: KindCluster, MTTR: RateOf(inf)},
			"engine: cluster scenario needs finite mtbf/mttr, got 0/+Inf"},
		{Scenario{Kind: KindCluster, MTBF: RateOf(-1)},
			"engine: cluster scenario needs non-negative mtbf/mttr, got -1/0"},
		{Scenario{Kind: KindPolicy, BaseRate: nan},
			"engine: policy scenario needs 0 <= base_rate, peak_rate <= 10000000, got NaN"},
		{Scenario{Kind: KindPolicy, PeakRate: inf},
			"engine: policy scenario needs 0 <= base_rate, peak_rate <= 10000000, got +Inf"},
		{Scenario{Kind: KindPolicy, HorizonSeconds: nan},
			"engine: policy scenario needs 0 <= horizon_seconds <= 2592000.000s"},
	} {
		err := tc.s.Normalized().Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%+v: Validate = %v, want %q", tc.s, err, tc.want)
		}
	}
}
