package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"ealb/internal/farm"
	"ealb/internal/workload"
)

// The federated golden digests extend the cluster-level suite
// (internal/cluster/golden_test.go) to farm runs: SHA-256 over the JSON
// encoding of the farm's per-interval stream, pinned at the digests the
// initial farm implementation produced. A mismatch means a cluster
// stream, the front-end's arrival stream, or a dispatch decision moved —
// which silently invalidates the federated panels in EXPERIMENTS.md.
// Re-pin only for intentional, called-out simulation changes, from the
// failure output of:
//
//	go test ./internal/engine -run 'TestFarmGoldenDigests/<scenario>' -v
var farmGoldenDigests = []struct {
	name     string
	scenario Scenario
	digest   string
}{
	{"clusters=2/size=100/low/seed=1",
		Scenario{Kind: KindFarm, Clusters: 2, Size: 100, Band: "low", Seed: SeedOf(1), Intervals: 25},
		"bc725806ef0a0543a3de93e88317e462ac9b8112c1fb339b1773ab2d1cb6a78e"},
	{"clusters=2/size=100/high/seed=2014",
		Scenario{Kind: KindFarm, Clusters: 2, Size: 100, Band: "high", Seed: SeedOf(2014), Intervals: 25,
			Dispatch: "least-loaded"},
		"4d17b87db34a0ff2491a9487d266dc8ec048a843f71b5920defe60690e29b092"},
}

// farmDigest executes the scenario on a pool with the given worker
// count and hashes the JSON-encoded farm interval stream.
func farmDigest(t *testing.T, workers int, s Scenario) string {
	t.Helper()
	res, err := runOne(context.Background(), NewPool(workers), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Farm == nil {
		t.Fatalf("no farm result: %+v", res)
	}
	raw, err := json.Marshal(res.Farm.Stats)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestFarmGoldenDigests pins the federated reference runs and the
// engine's parallel-equals-serial contract for farms: the same scenario
// on one worker and on eight must produce the pinned digest.
func TestFarmGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("federated golden digests run 2×100-server farms; skipped in -short mode")
	}
	for _, g := range farmGoldenDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			serial := farmDigest(t, 1, g.scenario)
			parallel := farmDigest(t, 8, g.scenario)
			if serial != parallel {
				t.Errorf("parallel farm execution diverged from serial:\n serial   %s\n parallel %s", serial, parallel)
			}
			if serial != g.digest {
				t.Errorf("digest drifted from the pinned federated run:\n got  %s\n want %s", serial, g.digest)
			}
		})
	}
}

// TestFarmArenaReuseIsInvisible: running farm cells back to back through
// a pool forces later cells onto rebuilt arena farms (recycled clusters
// included), and each result must be byte-identical to a fresh direct
// farm run.
func TestFarmArenaReuseIsInvisible(t *testing.T) {
	scenario := Scenario{Kind: KindFarm, Clusters: 3, Size: 50, Band: "low", Seed: SeedOf(5), Intervals: 8}.Normalized()
	cfg, err := scenario.farmSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	f, err := farm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := measureFarm(context.Background(), f, scenario.Intervals, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(2)
	// A differently-shaped farm first (more clusters, other size and
	// band), so the reference cells rebuild from foreign state.
	spec := SweepSpec{Scenario: Scenario{Kind: KindFarm, Band: "low", Intervals: 8, Seed: SeedOf(5), Size: 50}}
	warm, err := runOne(context.Background(), p, Scenario{Kind: KindFarm, Clusters: 4, Size: 30, Band: "high", Seed: SeedOf(9), Intervals: 5})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Farm == nil {
		t.Fatal("warm-up farm missing result")
	}
	spec.ClusterCounts = []int{3, 3}
	res, err := p.RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range res.Cells {
		got, err := json.Marshal(cell.Farm)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("arena-reused farm cell %d diverged from a direct farm run", i)
		}
	}
}

// TestFarmSweepAxes: a farm sweep over dispatch policies and cluster
// counts expands deterministically, every cell carries a farm result,
// and aggregates group by the farm parameter combination.
func TestFarmSweepAxes(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"farm","sizes":[40],"cluster_counts":[2,3],"dispatches":["round-robin","energy-headroom"],"seeds":[1,2],"intervals":4}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("sweep has %d cells, want 8", len(res.Cells))
	}
	if len(res.Aggregates) != 4 {
		t.Fatalf("sweep has %d aggregates, want 4 (clusters × dispatch)", len(res.Aggregates))
	}
	for i, cell := range res.Cells {
		if cell.Farm == nil || len(cell.Farm.Stats) != 4 {
			t.Fatalf("cell %d missing farm stats: %+v", i, cell.Farm)
		}
		if cell.Scenario.Clusters != cell.Farm.Clusters {
			t.Errorf("cell %d: scenario clusters %d != run clusters %d", i, cell.Scenario.Clusters, cell.Farm.Clusters)
		}
	}
	// Expansion order: cluster counts vary before dispatches, seeds fastest.
	want := []struct {
		clusters int
		dispatch string
		seed     uint64
	}{
		{2, "round-robin", 1}, {2, "round-robin", 2},
		{2, "energy-headroom", 1}, {2, "energy-headroom", 2},
		{3, "round-robin", 1}, {3, "round-robin", 2},
		{3, "energy-headroom", 1}, {3, "energy-headroom", 2},
	}
	for i, w := range want {
		sc := res.Cells[i].Scenario
		if sc.Clusters != w.clusters || sc.Dispatch != w.dispatch || sc.SeedValue() != w.seed {
			t.Errorf("cell %d = (clusters=%d dispatch=%s seed=%d), want %+v",
				i, sc.Clusters, sc.Dispatch, sc.SeedValue(), w)
		}
	}

	// A farm cell must match the same scenario run individually.
	single, err := runOne(context.Background(), NewPool(2), res.Cells[3].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.Farm, res.Cells[3].Farm) {
		t.Error("sweep cell differs from its individual run")
	}
}

// TestFarmScenarioValidation: farm-specific request limits.
func TestFarmScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Kind: KindFarm, Clusters: -1},
		{Kind: KindFarm, Clusters: MaxScenarioClusters + 1},
		{Kind: KindFarm, Clusters: 2, Size: MaxScenarioSize/2 + 1},
		{Kind: KindFarm, Clusters: 2, ArrivalRate: RateOf(-1)},
		{Kind: KindFarm, Clusters: 2, ArrivalRate: RateOf(MaxScenarioArrivalRate + 1)},
		{Kind: KindFarm, Clusters: 2, Dispatch: "sideways"},
		{Kind: KindFarm, Clusters: 2, CompareBaseline: true},
	}
	for i, s := range bad {
		if err := s.Normalized().Validate(); err == nil {
			t.Errorf("scenario %d (%+v) unexpectedly valid", i, s)
		}
	}
	// Axis mismatches.
	for _, body := range []string{
		`{"kind":"cluster","cluster_counts":[2]}`,
		`{"kind":"cluster","dispatches":["rr"]}`,
		`{"kind":"policy","cluster_counts":[2]}`,
		`{"kind":"farm","profiles":["diurnal"]}`,
		`{"kind":"farm","clusters":2,"cluster_counts":[2,3]}`,
		`{"kind":"farm","dispatch":"rr","dispatches":["rr"]}`,
	} {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Expand(); err == nil {
			t.Errorf("body %s unexpectedly expanded", body)
		}
	}
	// Defaults.
	s := Scenario{Kind: KindFarm}.Normalized()
	if s.Clusters != 2 || s.Dispatch != "round-robin" || s.Size != 100 || s.Sleep != "auto" {
		t.Errorf("farm defaults = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("normalized farm default invalid: %v", err)
	}
}

// TestClosedFarmRate: an explicit "arrival_rate":0 runs a closed farm
// (no arrivals at all), while an absent field selects the default open
// workload — the Seed-style pointer distinction, HTTP-expressible.
func TestClosedFarmRate(t *testing.T) {
	var closed Scenario
	if err := json.Unmarshal([]byte(`{"kind":"farm","clusters":2,"size":40,"intervals":6,"arrival_rate":0}`), &closed); err != nil {
		t.Fatal(err)
	}
	res, err := runOne(context.Background(), NewPool(2), closed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Farm.Dispatched != 0 || res.Farm.Rejected != 0 {
		t.Errorf("closed farm dispatched %d / rejected %d arrivals", res.Farm.Dispatched, res.Farm.Rejected)
	}
	if res.Scenario.ArrivalRate == nil || *res.Scenario.ArrivalRate != 0 {
		t.Errorf("explicit rate 0 was rewritten: %+v", res.Scenario.ArrivalRate)
	}

	open := Scenario{Kind: KindFarm, Clusters: 2, Size: 40, Intervals: 6}.Normalized()
	if open.ArrivalRate == nil || *open.ArrivalRate != farm.DefaultArrivalRate(2, 40) {
		t.Errorf("absent rate normalized to %v, want default %v", open.ArrivalRate, farm.DefaultArrivalRate(2, 40))
	}
}

// TestRunFarmRespectsBand: the farm run reports the shape it simulated.
func TestRunFarmRespectsBand(t *testing.T) {
	cfg := farm.DefaultConfig(2, 40, workload.HighLoad(), 3)
	cfg.Dispatch = farm.DispatchLeastLoaded
	f, err := farm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := measureFarm(context.Background(), f, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Clusters != 2 || run.Size != 40 || run.Band != workload.HighLoad() || run.Dispatch != "least-loaded" {
		t.Errorf("run shape = %+v", run)
	}
	if len(run.Stats) != 5 || run.Energy <= 0 {
		t.Errorf("run measurements = %+v", run)
	}
}
