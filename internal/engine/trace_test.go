package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"ealb/internal/stats"
	"ealb/internal/trace"
)

// tracedScenarioDigest runs one scenario through RunExpandedHooked with
// the given tracer attached to its single cell and hashes the
// JSON-encoded interval stream — the same bytes clusterDigest and
// farmDigest hash, so the result is directly comparable to the pinned
// churned goldens.
func tracedScenarioDigest(t *testing.T, workers int, s Scenario, tr trace.Tracer) string {
	t.Helper()
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ex := ExpandedSweep{
		spec:  SweepSpec{Scenario: Scenario{Kind: s.Kind}},
		cells: []Scenario{s},
	}
	res, err := NewPool(workers).RunExpandedHooked(context.Background(), ex,
		RunHooks{TracerFor: func(int) trace.Tracer { return tr }})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	var raw []byte
	switch {
	case cell.Cluster != nil:
		raw, err = json.Marshal(cell.Cluster.Stats)
	case cell.Farm != nil:
		raw, err = json.Marshal(cell.Farm.Stats)
	default:
		t.Fatalf("cell carries neither cluster nor farm result: %+v", cell)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestEngineTraceInvariance replays the pinned churned golden scenarios
// through RunExpandedHooked with a full tracer (recorder + discarded
// NDJSON writer) attached: the digests must still match the pins
// byte-for-byte, and the tracer must have actually seen decisions —
// failures included — so the invariance claim is not vacuous.
func TestEngineTraceInvariance(t *testing.T) {
	for _, g := range churnGoldenDigests {
		g := g
		t.Run("cluster/"+g.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			tr := trace.Multi(rec, trace.NewWriter(io.Discard))
			got := tracedScenarioDigest(t, 4, g.scenario, tr)
			if got != g.digest {
				t.Errorf("traced churned run drifted from the pinned digest:\n got  %s\n want %s", got, g.digest)
			}
			if rec.TotalEvents() == 0 {
				t.Error("tracer saw no events; invariance check is vacuous")
			}
			if rec.Events(trace.KindFail) == 0 {
				t.Error("churned run traced no failures")
			}
		})
	}
	if testing.Short() {
		t.Log("skipping federated traced digests in -short mode")
		return
	}
	for _, g := range farmChurnGoldenDigests {
		g := g
		t.Run("farm/"+g.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			tr := trace.Multi(rec, trace.NewWriter(io.Discard))
			got := tracedScenarioDigest(t, 4, g.scenario, tr)
			if got != g.digest {
				t.Errorf("traced churned farm drifted from the pinned digest:\n got  %s\n want %s", got, g.digest)
			}
			if rec.Events(trace.KindDispatch) == 0 {
				t.Error("farm run traced no dispatch decisions")
			}
			if rec.Events(trace.KindFail) == 0 {
				t.Error("churned farm traced no failures")
			}
		})
	}
}

// TestPoolJobHistograms: every executed job lands one observation in
// each of the pool's queue-wait and run-duration histograms.
func TestPoolJobHistograms(t *testing.T) {
	p := NewPool(2)
	if err := p.Map(context.Background(), 5, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.JobQueueWait.Count != 5 {
		t.Errorf("queue-wait count = %d, want 5", st.JobQueueWait.Count)
	}
	if st.JobRunDuration.Count != 5 {
		t.Errorf("run-duration count = %d, want 5", st.JobRunDuration.Count)
	}
	// The inline single-worker path must observe too.
	p1 := NewPool(1)
	if err := p1.Map(context.Background(), 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := p1.Stats().JobRunDuration.Count; got != 3 {
		t.Errorf("inline-path run-duration count = %d, want 3", got)
	}
}

// TestScenarioTraceValidation: the trace flag is accepted on cluster and
// farm scenarios and rejected on policy ones (decision tracing has no
// meaning for the closed-form §3 line-up).
func TestScenarioTraceValidation(t *testing.T) {
	ok := []Scenario{
		{Kind: KindCluster, Size: 40, Intervals: 3, Trace: true},
		{Kind: KindFarm, Clusters: 2, Size: 40, Intervals: 3, Trace: true},
	}
	for i, s := range ok {
		if err := s.Normalized().Validate(); err != nil {
			t.Errorf("scenario %d with trace rejected: %v", i, err)
		}
	}
	bad := Scenario{Kind: KindPolicy, Trace: true}
	if err := bad.Normalized().Validate(); err == nil {
		t.Error("policy scenario with trace unexpectedly valid")
	}
}

// zeroPhases is an NDJSON trace writer that records every phase timing
// as zero nanoseconds, so two traces of the same run compare byte for
// byte: events, their order, and where each phase line falls.
type zeroPhases struct{ *trace.Writer }

func (z zeroPhases) Phase(p trace.Phase, _ time.Duration) { z.Writer.Phase(p, 0) }

// TestFarmTraceOrder: a traced single-cell farm writes the same trace
// bytes on every run, on a multi-worker pool and on one worker alike.
func TestFarmTraceOrder(t *testing.T) {
	s := Scenario{Kind: KindFarm, Clusters: 4, Size: 100, Band: "low", Seed: SeedOf(2014),
		Intervals: 5, Dispatch: "least-loaded"}.Normalized()
	ex := ExpandedSweep{spec: SweepSpec{Scenario: Scenario{Kind: s.Kind}}, cells: []Scenario{s}}
	traceOf := func(workers int) string {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		hooks := RunHooks{TracerFor: func(int) trace.Tracer { return zeroPhases{w} }}
		if _, err := NewPool(workers).RunExpandedHooked(context.Background(), ex, hooks); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := traceOf(1)
	if !strings.Contains(want, `"kind":"dispatch"`) || !strings.Contains(want, `"cluster":3`) {
		t.Fatalf("trace lacks dispatch decisions or the last cluster's events:\n%.500s", want)
	}
	for run := 1; run <= 2; run++ {
		if got := traceOf(4); got != want {
			t.Errorf("run %d on 4 workers wrote a different trace than one worker (%d vs %d bytes)", run, len(got), len(want))
		}
	}
}

// tally counts decision events by what they did.
type tally struct {
	mu                           sync.Mutex
	moves, wakes, fails, repairs int
	replaced, lost               int
	dispatched, rejected         int
}

func (t *tally) Event(e trace.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case trace.KindMove:
		t.moves++
	case trace.KindWake:
		t.wakes++
	case trace.KindFail:
		t.fails++
		t.replaced += e.Replaced
		t.lost += e.Lost
	case trace.KindRepair:
		t.repairs++
	case trace.KindDispatch:
		if e.OK {
			t.dispatched++
		} else {
			t.rejected++
		}
	}
}

func (*tally) Phase(trace.Phase, time.Duration) {}

// TestRunTotalsMatchEvents: the run totals a cluster or farm run folds
// from its interval records equal the counts of the decision events
// the same run traced, and the ratio statistics are the mean and
// sample deviation of the per-interval ratios.
func TestRunTotalsMatchEvents(t *testing.T) {
	run := func(s Scenario) (Result, *tally) {
		s = s.Normalized()
		ex := ExpandedSweep{spec: SweepSpec{Scenario: Scenario{Kind: s.Kind}}, cells: []Scenario{s}}
		tl := &tally{}
		res, err := NewPool(2).RunExpandedHooked(context.Background(), ex,
			RunHooks{TracerFor: func(int) trace.Tracer { return tl }})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cells[0], tl
	}
	mtbf, mttr := 900.0, 300.0

	res, tl := run(Scenario{Kind: KindCluster, Size: 120, Band: "high", Seed: SeedOf(5), Intervals: 20,
		MTBF: &mtbf, MTTR: &mttr})
	c := res.Cluster
	if tl.fails == 0 || tl.lost+tl.replaced == 0 {
		t.Fatalf("churned cluster traced %d failures orphaning %d apps; want both > 0", tl.fails, tl.lost+tl.replaced)
	}
	if c.Wakes != tl.wakes || c.Failures != tl.fails || c.Repairs != tl.repairs ||
		c.AppsReplaced != tl.replaced || c.AppsLost != tl.lost {
		t.Errorf("cluster totals (wakes %d, failures %d, repairs %d, replaced %d, lost %d) != events (%d, %d, %d, %d, %d)",
			c.Wakes, c.Failures, c.Repairs, c.AppsReplaced, c.AppsLost,
			tl.wakes, tl.fails, tl.repairs, tl.replaced, tl.lost)
	}
	if c.MeanRatio != stats.Mean(c.Ratios()) || c.StdRatio != stats.SampleStdDev(c.Ratios()) {
		t.Errorf("ratio mean %v (std %v) is not the ratio series' %v (%v)",
			c.MeanRatio, c.StdRatio, stats.Mean(c.Ratios()), stats.SampleStdDev(c.Ratios()))
	}

	res, tl = run(Scenario{Kind: KindFarm, Clusters: 3, Size: 60, Band: "high", Seed: SeedOf(3), Intervals: 15,
		Dispatch: "least-loaded", MTBF: &mtbf, MTTR: &mttr})
	f := res.Farm
	if tl.fails == 0 || tl.dispatched == 0 {
		t.Fatalf("churned farm traced %d failures and %d dispatches; want both > 0", tl.fails, tl.dispatched)
	}
	if f.Wakes != tl.wakes || f.Failures != tl.fails || f.Repairs != tl.repairs ||
		f.AppsReplaced != tl.replaced || f.AppsLost != tl.lost ||
		f.Dispatched != tl.dispatched || f.Rejected != tl.rejected {
		t.Errorf("farm totals (wakes %d, failures %d, repairs %d, replaced %d, lost %d, dispatched %d, rejected %d) != events (%d, %d, %d, %d, %d, %d, %d)",
			f.Wakes, f.Failures, f.Repairs, f.AppsReplaced, f.AppsLost, f.Dispatched, f.Rejected,
			tl.wakes, tl.fails, tl.repairs, tl.replaced, tl.lost, tl.dispatched, tl.rejected)
	}
	// Growth routing moves without a move event, so the planned moves
	// and failure re-placements bound the migrations from below.
	if f.Migrations < tl.moves+tl.replaced {
		t.Errorf("farm migrations %d < %d planned moves + %d re-placements", f.Migrations, tl.moves, tl.replaced)
	}
	if last := f.Stats[len(f.Stats)-1]; f.Sleeping != last.Sleeping {
		t.Errorf("farm sleeping at end %d != last interval's %d", f.Sleeping, last.Sleeping)
	}
}
