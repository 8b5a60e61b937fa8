package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustExpand(t *testing.T, spec SweepSpec) (SweepSpec, []Scenario) {
	t.Helper()
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return ex.Spec(), ex.Cells()
}

// TestSweepExpandCrossProduct is the acceptance shape of the v2 API: one
// request with sizes×seeds lists expands to the full cross-product in
// deterministic order.
func TestSweepExpandCrossProduct(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[100,1000],"seeds":[1,2,3],"intervals":8}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantSizes := []int{100, 100, 100, 1000, 1000, 1000}
	wantSeeds := []uint64{1, 2, 3, 1, 2, 3}
	for i, c := range cells {
		if c.Size != wantSizes[i] || c.SeedValue() != wantSeeds[i] {
			t.Errorf("cell %d = size %d seed %d, want size %d seed %d",
				i, c.Size, c.SeedValue(), wantSizes[i], wantSeeds[i])
		}
		if c.Band != "low" || c.Sleep != "auto" || c.Intervals != 8 {
			t.Errorf("cell %d defaults not normalized: %+v", i, c)
		}
	}
}

// TestSweepV1BodyIsSingleCell: a v1 scalar body expands to exactly its
// one v1 cell, unchanged.
func TestSweepV1BodyIsSingleCell(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"cluster","size":40,"band":"low","seed":2014,"intervals":5,"compare_baseline":true}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if !spec.SingleRun() {
		t.Error("v1 body not recognized as a single run")
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	want := Scenario{Kind: KindCluster, Size: 40, Band: "low", Seed: SeedOf(2014),
		Intervals: 5, Sleep: "auto", CompareBaseline: true}
	if !reflect.DeepEqual(cells[0], want) {
		t.Errorf("cell = %+v, want %+v", cells[0], want)
	}
}

// TestSeedZeroIsReachable is the regression test for the seed-0 wart:
// an explicit seed 0 must survive normalization (it used to be silently
// rewritten to the 2014 default), while an absent seed still defaults.
func TestSeedZeroIsReachable(t *testing.T) {
	var withZero Scenario
	if err := json.Unmarshal([]byte(`{"size":40,"seed":0}`), &withZero); err != nil {
		t.Fatal(err)
	}
	if got := withZero.Normalized().SeedValue(); got != 0 {
		t.Errorf("explicit seed 0 normalized to %d", got)
	}

	var absent Scenario
	if err := json.Unmarshal([]byte(`{"size":40}`), &absent); err != nil {
		t.Fatal(err)
	}
	if got := absent.Normalized().SeedValue(); got != DefaultSeed {
		t.Errorf("absent seed normalized to %d, want default %d", got, DefaultSeed)
	}

	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":40,"intervals":3,"seeds":[0,1]}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if cells[0].SeedValue() != 0 || cells[1].SeedValue() != 1 {
		t.Errorf("seed axis [0,1] expanded to %d,%d", cells[0].SeedValue(), cells[1].SeedValue())
	}
}

func TestSweepExpandRejectsBadSpecs(t *testing.T) {
	for _, body := range []string{
		`{"kind":"quantum"}`,                    // bad kind
		`{"size":100,"sizes":[200]}`,            // scalar+list conflict
		`{"seed":1,"seeds":[2]}`,                // scalar+list conflict
		`{"band":"low","bands":["high"]}`,       // scalar+list conflict
		`{"sizes":[1],"intervals":3}`,           // invalid cell (size 1)
		`{"bands":["sideways"]}`,                // invalid band
		`{"replications":-2}`,                   // negative replications
		`{"sizes":[100],"replications":100000}`, // blows the job budget
		// Overflow probe: 2 seeds × (MaxInt/2+1) replications wraps the
		// int product negative on any word size; the division-based budget
		// check must still reject it.
		`{"seeds":[1,2],"replications":` + strconv.Itoa(math.MaxInt/2+1) + `}`,
		`{"profiles":["burst"]}`,          // policy axis on a cluster sweep
		`{"kind":"policy","sizes":[100]}`, // cluster axis on a policy sweep
		// Policy rates: negative, past MaxScenarioRate, or large enough
		// to wrap the farm's request counters.
		`{"kind":"policy","base_rate":-5}`,
		`{"kind":"policy","peak_rate":-1}`,
		`{"kind":"policy","base_rate":1e17,"horizon_seconds":600,"servers":10}`,
		`{"kind":"policy","base_rate":1e300}`,
		`{"kind":"policy","peak_rate":10000001}`,
		// The scalar form of another kind's field.
		`{"kind":"cluster","clusters":4,"dispatch":"least-loaded"}`,
		`{"kind":"cluster","arrival_rate":3}`,
		`{"kind":"cluster","profile":"burst"}`,
		`{"kind":"cluster","servers":10}`,
		`{"kind":"cluster","base_rate":100}`,
		`{"kind":"cluster","horizon_seconds":600}`,
		`{"kind":"farm","profile":"burst"}`,
		`{"kind":"farm","servers":10}`,
		`{"kind":"policy","size":100}`,
		`{"kind":"policy","band":"high"}`,
		`{"kind":"policy","sleep":"never"}`,
		`{"kind":"policy","intervals":5}`,
		`{"kind":"policy","mtbf":600}`,
		`{"kind":"policy","mttr":60}`,
		`{"kind":"policy","clusters":2}`,
		`{"kind":"policy","dispatch":"round-robin"}`,
		`{"kind":"policy","compare_baseline":true}`,
	} {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := spec.Expand(); err == nil {
			t.Errorf("spec %s unexpectedly expanded", body)
		}
	}
}

// TestSweepRefusedCellMessage: a refused cell's error names the cell
// once and carries the engine prefix once.
func TestSweepRefusedCellMessage(t *testing.T) {
	spec := SweepSpec{Scenario: Scenario{Kind: KindCluster, Dispatch: "least-loaded"}}
	_, err := spec.Expand()
	const want = `sweep cell 0: engine: "dispatch" does not apply to a cluster scenario`
	if err == nil || err.Error() != want {
		t.Errorf("Expand error = %v, want %q", err, want)
	}
}

// TestSweepBudgetRejectsWithoutMaterializing: the job budget must be
// enforced arithmetically, before the cross-product exists — a tiny
// request body must not be able to force a multi-gigabyte expansion.
func TestSweepBudgetRejectsWithoutMaterializing(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":50,"intervals":5,"replications":2000000000}`), &spec); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := spec.Expand()
	if err == nil {
		t.Fatal("two-billion-replication spec unexpectedly expanded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("budget rejection took %v; it must not materialize cells", elapsed)
	}
}

func TestSweepReplicationsDeriveSeeds(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":40,"intervals":3,"seeds":[10],"replications":3}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(cells))
	}
	for i, c := range cells {
		if c.SeedValue() != 10+uint64(i) {
			t.Errorf("replication %d seed = %d, want %d", i, c.SeedValue(), 10+uint64(i))
		}
	}
}

// TestRunSweepMatchesIndividualRuns is the v2 acceptance criterion: a
// sweep's per-cell results are bit-identical to running the same cells
// individually as one-cell sweeps.
func TestRunSweepMatchesIndividualRuns(t *testing.T) {
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[1,2,3],"intervals":6}`), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("sweep returned %d cells, want 6", len(res.Cells))
	}
	_, cells := mustExpand(t, spec)
	single := NewPool(1)
	for i, cell := range cells {
		direct, err := runOne(ctx, single, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Cells[i], direct) {
			t.Errorf("cell %d differs from its individual run", i)
		}
	}
	if len(res.Aggregates) != 2 {
		t.Fatalf("got %d aggregates, want 2 (one per size)", len(res.Aggregates))
	}
	for _, agg := range res.Aggregates {
		if agg.Cells != 3 {
			t.Errorf("aggregate %q covers %d cells, want 3", agg.Group, agg.Cells)
		}
		if agg.Energy.Mean <= 0 || agg.Energy.Min > agg.Energy.Max || agg.Energy.StdDev < 0 {
			t.Errorf("aggregate %q has implausible energy stat: %+v", agg.Group, agg.Energy)
		}
		if agg.Energy.Mean < agg.Energy.Min || agg.Energy.Mean > agg.Energy.Max {
			t.Errorf("aggregate %q mean outside [min,max]: %+v", agg.Group, agg.Energy)
		}
	}
}

func TestRunSweepPolicyProfiles(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"policy","profiles":["constant","burst"],"server_counts":[20],"horizon_seconds":600,"seeds":[1,2]}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sweep returned %d cells, want 4", len(res.Cells))
	}
	for i, c := range res.Cells {
		if len(c.Policies) == 0 {
			t.Errorf("cell %d has no policy results", i)
		}
	}
	if len(res.Aggregates) != 2 {
		t.Errorf("got %d aggregates, want 2 (one per profile)", len(res.Aggregates))
	}
}

// TestRunSweepCancellationStopsMidSimulation proves engine-level context
// cancellation stops a cluster simulation mid-sweep: the observer
// cancels after the second interval of a long run, and the sweep must
// come back with ctx.Err() long before the requested interval count.
func TestRunSweepCancellationStopsMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[100],"seeds":[1],"intervals":5000}`), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err = NewPool(1).RunExpandedHooked(ctx, ex, RunHooks{Observe: func(cell int, st any) {
		seen++
		if seen == 2 {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if seen > 3 {
		t.Errorf("simulation ran %d intervals after cancellation", seen)
	}
}

// TestRunScenarioCancelledBeforeStart: a cancelled context fails fast.
func TestRunScenarioCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	if _, err := runOne(ctx, p, Scenario{Size: 40, Intervals: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st := p.Stats(); st.RunsFailed != 1 {
		t.Errorf("RunsFailed = %d, want 1", st.RunsFailed)
	}
}

// TestSweepObserverSeesEveryInterval: the live-tail hook receives every
// interval of every (non-baseline) cell, keyed by cell index.
func TestSweepObserverSeesEveryInterval(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[5],"intervals":4,"compare_baseline":true}`), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := make(map[int]int)
	res, err := NewPool(4).RunExpandedHooked(context.Background(), ex, RunHooks{Observe: func(cell int, st any) {
		mu.Lock()
		counts[cell]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	for cell := 0; cell < 2; cell++ {
		if counts[cell] != 4 {
			t.Errorf("cell %d observed %d intervals, want 4", cell, counts[cell])
		}
		if res.Cells[cell].AlwaysOnJoules <= 0 {
			t.Errorf("cell %d baseline missing", cell)
		}
	}
}

// expandPinBodies are multi-axis bodies of every kind, beside the fuzz
// seeds: every list axis with replications, both churn axes as lists
// and as scalars, both farm axes, and refusals whose text names the
// refused cell's expansion index.
var expandPinBodies = []string{
	`{"sizes":[40,60],"bands":["low","high"],"sleeps":["auto","c6"],"mtbfs":[0,900],"mttrs":[120,240],"seeds":[3,5],"replications":2,"intervals":4}`,
	`{"mtbf":900,"mttrs":[60,120],"seeds":[1],"replications":3,"intervals":4}`,
	`{"mtbfs":[600,0],"sizes":[50],"intervals":3,"compare_baseline":true}`,
	`{"kind":"farm","sizes":[20,30],"bands":["low","0.3-0.5"],"sleeps":["c3"],"mtbfs":[0,1200],"mttrs":[300],"cluster_counts":[2,3],"dispatches":["round-robin","least-loaded"],"seeds":[7,8],"replications":2,"intervals":3}`,
	`{"kind":"farm","mtbf":900,"mttr":100,"arrival_rate":3,"cluster_counts":[1,2],"size":30,"replications":2,"intervals":3}`,
	`{"kind":"farm","mttrs":[50,70],"dispatch":"energy-headroom","clusters":4,"sizes":[10,20],"seed":0}`,
	`{"kind":"policy","profiles":["constant","burst","diurnal"],"server_counts":[10,20],"seeds":[1,2],"replications":2,"horizon_seconds":300}`,
	`{"kind":"policy","profile":"spike","server_counts":[5,10],"base_rate":100,"peak_rate":300,"replications":3}`,
	`{"kind":"farm","dispatches":["round-robin","nope"],"seeds":[1,2]}`,
	`{"sizes":[40,1],"seeds":[1,2],"replications":2}`,
	`{"kind":"farm","cluster_counts":[2,2000],"size":20}`,
	`{"mtbfs":[900,-1],"mttrs":[0,60]}`,
	`{"kind":"policy","server_counts":[10,-1],"profiles":["trend"]}`,
	`{"cluster_counts":[2]}`,
	`{"kind":"policy","mtbfs":[900]}`,
	`{"sizes":[100,200],"seeds":[1,2],"replications":1025}`,
}

// expandOutcome is what Expand makes of one request body: the
// normalized spec and the cells as JSON, or the error text.
func expandOutcome(t *testing.T, body string) string {
	t.Helper()
	var spec SweepSpec
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return "undecodable"
	}
	ex, err := spec.Expand()
	if err != nil {
		return "error: " + err.Error()
	}
	rawSpec, err := json.Marshal(ex.Spec())
	if err != nil {
		t.Fatal(err)
	}
	rawCells, err := json.Marshal(ex.Cells())
	if err != nil {
		t.Fatal(err)
	}
	// No cell may share a rate pointer with another cell or the spec: a
	// caller editing one cell's rate must not edit another's.
	sp := ex.Spec()
	owner := map[*float64]string{}
	claim := func(p *float64, who string) {
		if p == nil {
			return
		}
		if prev, ok := owner[p]; ok {
			t.Errorf("%s: %s shares a rate pointer with %s", body, who, prev)
		}
		owner[p] = who
	}
	claim(sp.ArrivalRate, "spec arrival_rate")
	claim(sp.MTBF, "spec mtbf")
	claim(sp.MTTR, "spec mttr")
	for i := range sp.MTBFs {
		claim(&sp.MTBFs[i], "spec mtbfs")
	}
	for i := range sp.MTTRs {
		claim(&sp.MTTRs[i], "spec mttrs")
	}
	for i, c := range ex.Cells() {
		claim(c.ArrivalRate, fmt.Sprintf("cell %d arrival_rate", i))
		claim(c.MTBF, fmt.Sprintf("cell %d mtbf", i))
		claim(c.MTTR, fmt.Sprintf("cell %d mttr", i))
	}
	return string(rawSpec) + "\n" + string(rawCells)
}

// TestExpandPinned pins Expand's outcome — normalized spec, cells in
// order, or refusal text — over the fuzz seeds and the multi-axis
// bodies to one digest, so a change to how the cross product is built
// cannot move a cell, a default or an error message unnoticed.
func TestExpandPinned(t *testing.T) {
	const want = "14e03a20c7dd156f654eb258f8ac935201939e91ef2ec810f775f8f38bc3ef1b"
	// Where int has 32 bits this replication count does not decode, so
	// its outcome depends on the platform; TestSweepExpandRejectsBadSpecs
	// checks its refusal on each.
	const platformDependent = `{"seeds":[1,2],"replications":4611686018427387904}`
	h := sha256.New()
	for _, body := range append(append([]string(nil), scenarioSpecSeeds...), expandPinBodies...) {
		if body == platformDependent {
			continue
		}
		out := expandOutcome(t, body)
		fmt.Fprintf(h, "%s\n%s\n", body, out)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("expansion digest %s, want %s", got, want)
	}
}

// sweepResultPins are small finished sweeps of each kind with the
// SHA-256 of their json.Marshal(SweepResult) bytes: the record the
// service stores and serves for a run. The cluster sweep churns, compares
// against the always-on baseline and runs two seeds, so every result,
// run, interval and aggregate field appears; the churn-free farm and
// policy sweeps carry the nil optional fields that must stay omitted.
var sweepResultPins = []struct {
	name, body, digest string
}{
	{"cluster",
		`{"sizes":[40],"seeds":[1,2],"intervals":6,"mtbf":1200,"mttr":300,"compare_baseline":true}`,
		"fe35130c33b5c5ee91e70113e7cbcf4ee33b708fc43b48786e42100b44f24906"},
	{"farm",
		`{"kind":"farm","clusters":2,"size":30,"seed":5,"intervals":4}`,
		"bd1e6a127306a4338e9152f76f1dbc07ff88438cc25f5396af37f2d7e3b22b47"},
	{"policy",
		`{"kind":"policy","profile":"burst","servers":20,"horizon_seconds":600,"seed":3}`,
		"bdc4136f037c2317dd7cf460722f2644357db3d81c7c92bbceaad72893700b40"},
}

// TestSweepResultPinned pins the bytes of finished sweeps. The golden
// digests pin interval streams and TestExpandPinned the expansion; this
// pin covers the rest of a recorded result — the wire name of every
// result, run and aggregate field and the omitempty of every optional
// one — so a renamed field or a dropped omitempty cannot change what a
// client reads unnoticed. Re-pin only for an intentional, called-out
// format or simulation change, from the failure output of
//
//	go test ./internal/engine -run TestSweepResultPinned -v
func TestSweepResultPinned(t *testing.T) {
	for _, pin := range sweepResultPins {
		t.Run(pin.name, func(t *testing.T) {
			var spec SweepSpec
			dec := json.NewDecoder(strings.NewReader(pin.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				t.Fatal(err)
			}
			res, err := NewPool(2).RunSweep(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != pin.digest {
				t.Errorf("sweep result digest %s, want %s", got, pin.digest)
			}
		})
	}
}
