package engine

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ealb/internal/trace"
)

// runHookedResume runs spec twice — uninterrupted, then resumed from a
// checkpoint covering the cells selected by keep — and asserts the
// marshaled results are byte-identical. The checkpointed results are
// round-tripped through JSON first, exactly as the service's store does,
// so the test also pins that the encoding loses nothing.
func runHookedResume(t *testing.T, body string, keep func(cell int) bool) {
	t.Helper()
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewPool(3).RunExpandedHooked(ctx, ex, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}

	completed := make(map[int]Result)
	for ci := range ex.Cells() {
		if !keep(ci) {
			continue
		}
		raw, err := json.Marshal(full.Cells[ci])
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		completed[ci] = res
	}
	if len(completed) == 0 || len(completed) == len(ex.Cells()) {
		t.Fatalf("checkpoint covers %d of %d cells; the test wants a strict subset",
			len(completed), len(ex.Cells()))
	}

	var mu sync.Mutex
	fired := make(map[int]bool)
	resumed, err := NewPool(3).RunExpandedHooked(ctx, ex, RunHooks{
		Completed: completed,
		CellDone: func(cell int, res Result) {
			mu.Lock()
			defer mu.Unlock()
			if fired[cell] {
				t.Errorf("CellDone fired twice for cell %d", cell)
			}
			fired[cell] = true
			if _, ok := completed[cell]; ok {
				t.Errorf("CellDone fired for checkpointed cell %d", cell)
			}
			if res.Scenario.Kind == "" {
				t.Errorf("CellDone cell %d result has no scenario", cell)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if wantFired := len(ex.Cells()) - len(completed); len(fired) != wantFired {
		t.Fatalf("CellDone fired for %d cells, want %d", len(fired), wantFired)
	}
}

// TestResumeClusterByteIdentical: a cluster sweep (with baseline
// comparisons, so cells span two jobs) resumed from a partial checkpoint
// reproduces the uninterrupted result bit-for-bit.
func TestResumeClusterByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"sizes":[40,60],"seeds":[1,2],"intervals":6,"compare_baseline":true}`,
		func(cell int) bool { return cell%2 == 0 })
}

// TestResumeClusterChurnByteIdentical covers the availability panels:
// resumed churny cells re-derive their failure streams identically.
func TestResumeClusterChurnByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"sizes":[40],"seeds":[1,2,3],"intervals":6,"mtbfs":[5000],"mttrs":[600]}`,
		func(cell int) bool { return cell == 1 })
}

// TestResumeFarmByteIdentical: farm cells resume identically (each cell
// is one job, advancing its clusters serially in multi-cell sweeps).
func TestResumeFarmByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"kind":"farm","cluster_counts":[2,3],"sizes":[20],"seeds":[7],"intervals":4}`,
		func(cell int) bool { return cell == 0 })
}

// TestResumePolicyByteIdentical: policy cells (a whole §3 line-up per
// cell) resume identically.
func TestResumePolicyByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"kind":"policy","profiles":["constant","diurnal"],"server_counts":[20],"horizon_seconds":600,"seeds":[5]}`,
		func(cell int) bool { return cell == 1 })
}

// TestCellDoneCompleteSweep: with no checkpoint, CellDone fires exactly
// once per cell and the hooked result equals the plain one.
func TestCellDoneCompleteSweep(t *testing.T) {
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[1],"intervals":5,"compare_baseline":true}`), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	done := make(map[int]Result)
	res, err := NewPool(4).RunExpandedHooked(ctx, ex, RunHooks{
		CellDone: func(cell int, r Result) {
			mu.Lock()
			defer mu.Unlock()
			done[cell] = r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(done) != len(res.Cells) {
		t.Fatalf("CellDone fired for %d cells, want %d", len(done), len(res.Cells))
	}
	for ci, r := range done {
		raw1, _ := json.Marshal(r)
		raw2, _ := json.Marshal(res.Cells[ci])
		if string(raw1) != string(raw2) {
			t.Errorf("cell %d: CellDone result differs from final result", ci)
		}
		if r.AlwaysOnJoules == 0 || r.JoulesSaved == 0 {
			t.Errorf("cell %d: CellDone fired before the baseline comparison landed: %+v", ci, r)
		}
	}
}

// eventLog is a tracer that keeps one cell's decision events as JSON
// lines; phase timings are wall-clock and are dropped.
type eventLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *eventLog) Event(e trace.Event) {
	raw, _ := json.Marshal(e)
	l.mu.Lock()
	l.lines = append(l.lines, string(raw))
	l.mu.Unlock()
}

func (l *eventLog) Phase(trace.Phase, time.Duration) {}

// hookStreams is what the hooks of one run saw, per expansion index:
// the observed interval stats and traced events as JSON lines, and the
// cells CellDone fired for.
type hookStreams struct {
	mu       sync.Mutex
	observed map[int][]string
	traced   map[int]*eventLog
	done     map[int]int
}

func runWithHooks(t *testing.T, ex ExpandedSweep, completed map[int]Result) (SweepResult, *hookStreams) {
	t.Helper()
	hs := &hookStreams{observed: map[int][]string{}, traced: map[int]*eventLog{}, done: map[int]int{}}
	res, err := NewPool(3).RunExpandedHooked(context.Background(), ex, RunHooks{
		Completed: completed,
		Observe: func(cell int, st any) {
			raw, err := json.Marshal(st)
			if err != nil {
				t.Error(err)
			}
			hs.mu.Lock()
			hs.observed[cell] = append(hs.observed[cell], string(raw))
			hs.mu.Unlock()
		},
		TracerFor: func(cell int) trace.Tracer {
			hs.mu.Lock()
			defer hs.mu.Unlock()
			if hs.traced[cell] != nil {
				t.Errorf("TracerFor consulted twice for cell %d", cell)
			}
			hs.traced[cell] = &eventLog{}
			return hs.traced[cell]
		},
		CellDone: func(cell int, _ Result) {
			hs.mu.Lock()
			hs.done[cell]++
			hs.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, hs
}

// TestResumeHookIndices: resumed from a checkpoint of cells 0 and 2, a
// 4-cell cluster sweep and a 4-cell farm sweep call Observe, TracerFor
// and CellDone with expansion indices 1 and 3 only, and each cell's
// observed and traced streams equal its streams in an uninterrupted run.
func TestResumeHookIndices(t *testing.T) {
	for _, body := range []string{
		`{"sizes":[40,60],"seeds":[1,2],"intervals":5,"mtbfs":[3000],"mttrs":[300],"compare_baseline":true}`,
		`{"kind":"farm","cluster_counts":[2,3],"dispatches":["round-robin","least-loaded"],"size":20,"seeds":[7],"intervals":4}`,
	} {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		ex, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Cells()) != 4 {
			t.Fatalf("%s: %d cells, want 4", body, len(ex.Cells()))
		}
		full, fullHooks := runWithHooks(t, ex, nil)
		completed := map[int]Result{0: full.Cells[0], 2: full.Cells[2]}
		resumed, hooks := runWithHooks(t, ex, completed)

		want := []int{1, 3}
		for name, seen := range map[string][]int{
			"Observe":   keys(hooks.observed),
			"TracerFor": keys(hooks.traced),
			"CellDone":  keys(hooks.done),
		} {
			if !reflect.DeepEqual(seen, want) {
				t.Errorf("%s: %s saw cells %v, want %v", body, name, seen, want)
			}
		}
		for _, ci := range want {
			if hooks.done[ci] != 1 {
				t.Errorf("%s: CellDone fired %d times for cell %d", body, hooks.done[ci], ci)
			}
			if !reflect.DeepEqual(hooks.observed[ci], fullHooks.observed[ci]) {
				t.Errorf("%s: cell %d observed stream differs from the uninterrupted run", body, ci)
			}
			got, wantEvents := hooks.traced[ci].lines, fullHooks.traced[ci].lines
			if len(wantEvents) == 0 || !reflect.DeepEqual(got, wantEvents) {
				t.Errorf("%s: cell %d traced %d events, the uninterrupted run %d", body, ci, len(got), len(wantEvents))
			}
		}
		a, _ := json.Marshal(full)
		b, _ := json.Marshal(resumed)
		if string(a) != string(b) {
			t.Errorf("%s: resumed sweep differs from the uninterrupted run", body)
		}
	}
}

// keys returns a map's keys in ascending order.
func keys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestResumeLoneFarmCellFansOut: when one farm cell is left to run, it
// advances its clusters on the pool each interval, as a one-cell farm
// sweep does, and still reproduces the uninterrupted result.
func TestResumeLoneFarmCellFansOut(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"farm","cluster_counts":[2,3],"dispatches":["round-robin","least-loaded"],"size":20,"seeds":[7],"intervals":4}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	full, err := NewPool(3).RunExpandedHooked(ctx, ex, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(3)
	resumed, err := p.RunExpandedHooked(ctx, ex, RunHooks{
		Completed: map[int]Result{0: full.Cells[0], 1: full.Cells[1], 2: full.Cells[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Error("resumed sweep differs from the uninterrupted run")
	}
	cell := ex.Cells()[3]
	if got, want := p.Stats().JobsSubmitted, uint64(cell.Intervals*cell.Clusters); got != want {
		t.Errorf("lone pending farm cell ran %d pool jobs, want one per cluster and interval (%d)", got, want)
	}
}
