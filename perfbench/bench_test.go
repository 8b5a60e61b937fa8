package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// serviceOp submits spec to svc, tails every cell and reads the record,
// as one serve-sweep op does.
func serviceOp(t *testing.T, svc *service, spec engine.SweepSpec) (record []byte, streams [][]byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := svc.client.do(http.MethodPost, "/v1/runs", body)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if streams, err = svc.client.streamCells(sub.ID, len(spec.Seeds)); err != nil {
		t.Fatal(err)
	}
	if record, err = svc.client.get("/v1/runs/" + sub.ID); err != nil {
		t.Fatal(err)
	}
	return record, streams
}

// timestamps matches the wall-clock fields of records, the only bytes
// two runs of one spec may differ in.
var timestamps = regexp.MustCompile(`"(created|started|finished)": ?"[^"]*"`)

func withoutTimestamps(b []byte) []byte { return timestamps.ReplaceAll(b, []byte(`"$1":""`)) }

// TestTimingWrappersAreTransparent runs the same op through a plain
// service and through one wrapped in the handler and store timers, on
// both store kinds the workloads use: the records, the streams and the
// stored records must be byte-identical.
func TestTimingWrappersAreTransparent(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []string{"disk", "memory"} {
		t.Run(kind, func(t *testing.T) {
			open := func(name string) func() (store.RunStore, error) {
				if kind == "disk" {
					return diskStore(filepath.Join(dir, name))
				}
				return memoryStore
			}
			plain, err := bootService(open("plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			log := newSpanLog()
			traced, err := bootService(open("traced"), log)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.close()

			spec := clusterSweep(sweepSize, sweepIntervals, []uint64{3, 5, 8, 13})
			wantRec, wantStreams := serviceOp(t, plain, spec)
			gotRec, gotStreams := serviceOp(t, traced, spec)

			if !bytes.Equal(withoutTimestamps(gotRec), withoutTimestamps(wantRec)) {
				t.Errorf("record through the timing wrappers differs:\n%s\nwant\n%s", gotRec, wantRec)
			}
			for cell := range wantStreams {
				if !bytes.Equal(gotStreams[cell], wantStreams[cell]) {
					t.Errorf("cell %d stream through the timing wrappers differs", cell)
				}
			}
			var run struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(wantRec, &run); err != nil {
				t.Fatal(err)
			}
			want, _, err := plain.store.GetRun(run.ID)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := traced.store.GetRun(run.ID)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(withoutTimestamps(gotJSON), withoutTimestamps(wantJSON)) {
				t.Errorf("stored record through the store timer differs:\n%s\nwant\n%s", gotJSON, wantJSON)
			}

			layers := map[string]int{}
			for _, s := range log.snapshot() {
				layers[s.layer]++
			}
			for _, l := range []string{layerHTTP, layerServe, layerStore} {
				if layers[l] == 0 {
					t.Errorf("no %s spans recorded; the wrapper is not in the path", l)
				}
			}
		})
	}
}

// TestEngineReplayMatchesService checks the op check itself: the
// service's presentation of a sweep digests to the direct engine run's
// digest, and a changed stream byte does not.
func TestEngineReplayMatchesService(t *testing.T) {
	svc, err := bootService(memoryStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	spec := clusterSweep(sweepSize, sweepIntervals, []uint64{21, 34})
	record, streams := serviceOp(t, svc, spec)
	got, err := sweepDigest(record, streams)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := engineRun(engine.NewPool(1), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != rp.digest {
		t.Fatal("service record and streams do not digest to the engine run's digest")
	}
	streams[1] = bytes.Replace(streams[1], []byte(`"Index":7`), []byte(`"Index":8`), 1)
	if tampered, _ := sweepDigest(record, streams); tampered == rp.digest {
		t.Fatal("a changed stream line left the digest unchanged")
	}
}

// TestTracedReplayMatchesUntraced checks that the traced engine replay
// yields the same results and interval streams as the untraced one, and
// that it recorded phases and intervals.
func TestTracedReplayMatchesUntraced(t *testing.T) {
	spec := clusterSweep(sweepSize, sweepIntervals, []uint64{1, 2, 3})
	plain, err := engineRun(engine.NewPool(1), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	tr := newPhaseTracer(log)
	traced, err := engineRun(engine.NewPool(1), spec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest != plain.digest {
		t.Fatal("traced replay differs from the untraced replay")
	}
	phases, unphased := phaseTimes(log.snapshot())
	if want := 3 * (sweepIntervals - 1); len(unphased) != want || len(phases[0]) != want {
		t.Fatalf("got %d interval spans, want %d (every interval but each cell's first)", len(unphased), want)
	}
	if n := tr.eventCounts(); n[0] == 0 {
		t.Error("traced replay counted no report events")
	}
}

func TestCovered(t *testing.T) {
	sp := func(a, b time.Duration) span { return span{start: a, end: b} }
	for _, tc := range []struct {
		spans []span
		want  time.Duration
	}{
		{nil, 0},
		{[]span{sp(0, 10)}, 10},
		{[]span{sp(0, 10), sp(5, 8)}, 10},
		{[]span{sp(0, 10), sp(5, 15)}, 15},
		{[]span{sp(0, 10), sp(20, 25)}, 15},
		{[]span{sp(0, 10), sp(2, 4), sp(12, 14), sp(13, 20)}, 18},
	} {
		if got := covered(tc.spans); got != tc.want {
			t.Errorf("covered(%v) = %v, want %v", tc.spans, got, tc.want)
		}
	}
}

func TestPhaseTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{layer: layerInterval, start: 0, end: 10 * ms},
		{layer: layerCluster, name: "workload", start: 1 * ms, end: 4 * ms},
		{layer: layerCluster, name: "plan", start: 4 * ms, end: 6 * ms},
		{layer: layerInterval, start: 10 * ms, end: 20 * ms},
		{layer: layerCluster, name: "workload", start: 11 * ms, end: 12 * ms},
	}
	phases, unphased := phaseTimes(spans)
	if got, want := phases[0], []float64{3, 1}; !equalFloats(got, want) {
		t.Errorf("workload phase = %v, want %v", got, want)
	}
	if got, want := phases[2], []float64{2, 0}; !equalFloats(got, want) {
		t.Errorf("plan phase = %v, want %v", got, want)
	}
	if want := []float64{5, 9}; !equalFloats(unphased, want) {
		t.Errorf("unphased = %v, want %v", unphased, want)
	}
}

func TestSliceRates(t *testing.T) {
	ms := time.Millisecond
	// Twelve ops of 10 ms wall and 5 ms CPU each, cut into ten slices:
	// [0] [1] [2] [3] [4 5] [6] [7] [8] [9] [10 11]. Op 4 failed, so its
	// slice completes one op in 20 ms and that op carries 10 ms of CPU.
	var w windowStats
	for i := range 12 {
		r := opRecord{wall: time.Duration(i+1) * 10 * ms, cpu: time.Duration(i+1) * 5 * ms}
		if i == 4 {
			r.err = errors.New("failed")
		}
		w.ops = append(w.ops, r)
	}
	perS, cpuMS := w.sliceRates()
	wantPerS := []float64{100, 100, 100, 100, 50, 100, 100, 100, 100, 100}
	wantCPU := []float64{5, 5, 5, 5, 10, 5, 5, 5, 5, 5}
	if !equalFloats(perS, wantPerS) || !equalFloats(cpuMS, wantCPU) {
		t.Errorf("sliceRates() = %v, %v; want %v, %v", perS, cpuMS, wantPerS, wantCPU)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
