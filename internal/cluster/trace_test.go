package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"ealb/internal/server"
	"ealb/internal/trace"
	"ealb/internal/workload"
)

// testTracer returns a discard-backed tracer when EALB_TEST_TRACE=1 —
// CI's trace-enabled variant uses it to re-verify every golden digest
// with tracing attached — and nil otherwise.
func testTracer() trace.Tracer {
	if os.Getenv("EALB_TEST_TRACE") != "1" {
		return nil
	}
	return trace.Multi(trace.NewRecorder(), trace.NewWriter(io.Discard))
}

// tracedDigest runs a scenario with the given tracer attached and
// hashes the JSON-encoded IntervalStats stream, exactly like
// intervalDigest does for the golden pins.
func tracedDigest(t *testing.T, cfg Config, intervals int, tr trace.Tracer) string {
	t.Helper()
	cfg.Tracer = tr
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.RunIntervals(context.Background(), intervals)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestTraceGoldenInvariance is the tentpole's hard invariant for the
// churn-free reference scenarios: attaching a full tracer (recorder +
// NDJSON writer) leaves the pinned golden digests byte-identical —
// tracing consumes no random numbers and alters no simulated state.
func TestTraceGoldenInvariance(t *testing.T) {
	for _, g := range goldenDigests {
		if g.size > 100 {
			continue // the two size-100 pins exercise both load bands
		}
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			rec := trace.NewRecorder()
			tr := trace.Multi(rec, trace.NewWriter(io.Discard))
			cfg := DefaultConfig(g.size, g.band, g.seed)
			if got := tracedDigest(t, cfg, g.intervals, tr); got != g.digest {
				t.Errorf("digest drifted with tracer attached:\n got  %s\n want %s", got, g.digest)
			}
			if rec.TotalEvents() == 0 {
				t.Error("tracer attached but no events recorded")
			}
			if rec.Events(trace.KindReport) == 0 {
				t.Error("no regime reports traced")
			}
			for p := trace.Phase(0); p < trace.NumPhases; p++ {
				if n := rec.PhaseSnapshot(p).Count; n != uint64(g.intervals) {
					t.Errorf("phase %v observed %d times, want %d", p, n, g.intervals)
				}
			}
		})
	}
}

// TestTraceChurnInvariance runs a churned scenario with and without a
// tracer and requires identical digests, plus traced failure/repair
// events. The untraced digest is computed in-test (the churned pins
// live in the engine package) — the invariant here is tracer-on ==
// tracer-off, bit for bit.
func TestTraceChurnInvariance(t *testing.T) {
	cfg := DefaultConfig(100, workload.LowLoad(), 2014)
	cfg.MTBF = 20 * Tau
	cfg.MTTR = 5 * Tau
	const intervals = 40

	plain := tracedDigest(t, cfg, intervals, nil)
	rec := trace.NewRecorder()
	traced := tracedDigest(t, cfg, intervals, trace.Multi(rec, trace.NewWriter(io.Discard)))
	if plain != traced {
		t.Errorf("churned digest differs with tracer attached:\n off %s\n on  %s", plain, traced)
	}
	if rec.Events(trace.KindFail) == 0 {
		t.Error("churned run traced no failures (MTBF 20τ over 40 intervals should crash servers)")
	}
	if rec.Events(trace.KindRepair) == 0 {
		t.Error("churned run traced no repairs")
	}
}

// TestTraceAdmitEvents covers the admission hook: placements and
// rejections both emit KindAdmit with the outcome.
func TestTraceAdmitEvents(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := DefaultConfig(8, workload.LowLoad(), 7)
	cfg.Tracer = rec
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admits := 0
	for i := 0; i < 50; i++ {
		_, ok, err := c.Admit(0.1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			admits++
		}
	}
	if got := rec.Events(trace.KindAdmit); got != 50 {
		t.Fatalf("traced %d admit events, want 50", got)
	}
	if admits == 0 {
		t.Fatal("no admission succeeded; event coverage for the success path is vacuous")
	}
}

// applyOrderTracer records the decision events of each apply phase and,
// when the plan phase ends, the servers activeID admits at that point.
// Phase is called once a phase is over, so the apply phase's events are
// exactly those between the plan's and the apply's Phase calls.
type applyOrderTracer struct {
	c       *Cluster
	inApply bool
	active  []int
	events  []trace.Event
	// done is called with each apply phase's active list and events.
	done func(active []int, events []trace.Event)
}

func (a *applyOrderTracer) Event(e trace.Event) {
	if a.inApply {
		a.events = append(a.events, e)
	}
}

func (a *applyOrderTracer) Phase(p trace.Phase, _ time.Duration) {
	switch p {
	case trace.PhasePlan:
		a.inApply = true
		a.active, a.events = a.active[:0], a.events[:0]
		for i := range a.c.servers {
			if a.c.activeID(server.ID(i)) {
				a.active = append(a.active, i)
			}
		}
	case trace.PhaseApply:
		a.inApply = false
		a.done(a.active, a.events)
	}
}

// TestReportsChargedFirstAtApply pins where the regime reports of §4
// happen: in the apply phase, exactly one per server that is active
// once planning ends, in ascending server ID, and all of them before the
// first move, wake or sleep.
func TestReportsChargedFirstAtApply(t *testing.T) {
	for _, band := range []workload.Band{workload.LowLoad(), workload.HighLoad()} {
		cfg := DefaultConfig(200, band, 2014)
		cfg.MTBF = 20 * Tau
		cfg.MTTR = 5 * Tau
		var inactive, decisions int
		tr := &applyOrderTracer{}
		tr.done = func(active []int, events []trace.Event) {
			var reports []int
			decided := false
			for _, e := range events {
				switch e.Kind {
				case trace.KindReport:
					if decided {
						t.Fatalf("interval %d: report from server %d after a move, wake or sleep", e.Interval, e.Src)
					}
					reports = append(reports, e.Src)
				case trace.KindMove, trace.KindWake, trace.KindSleep:
					decided = true
					decisions++
				default:
					t.Fatalf("interval %d: unexpected %q event in the apply phase", e.Interval, e.Kind)
				}
			}
			if !slices.Equal(reports, active) {
				t.Fatalf("apply phase reported servers %v, want the active servers %v in ascending ID", reports, active)
			}
			inactive += len(tr.c.servers) - len(active)
		}
		cfg.Tracer = tr
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.c = c
		if _, err := c.RunIntervals(context.Background(), 30); err != nil {
			t.Fatal(err)
		}
		// The checks above are vacuous unless some server sat out a
		// report and some decision followed the reports.
		if inactive == 0 || decisions == 0 {
			t.Fatalf("band %v: %d inactive server-intervals and %d decisions; the test needs both", band, inactive, decisions)
		}
	}
}
