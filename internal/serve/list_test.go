package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// summaryView is the typed view of a list entry: a run's answer without
// its result or its started and finished times.
type summaryView struct {
	ID       string            `json:"id"`
	Status   string            `json:"status"`
	Scenario *engine.Scenario  `json:"scenario,omitempty"`
	Spec     *engine.SweepSpec `json:"spec,omitempty"`
	Error    string            `json:"error,omitempty"`
	Created  time.Time         `json:"created"`
}

func summaryOf(v runView) summaryView {
	return summaryView{ID: v.ID, Status: v.Status, Scenario: v.Scenario, Spec: v.Spec, Error: v.Error, Created: v.Created}
}

// TestListBodyMatchesEncoder: every list body is the byte stream
// json.Encoder with SetIndent("", "  ") writes for the typed summary
// views of the runs it lists, built from each run's fields, and it lists
// them ascending by seq across the boundary between recovered runs and
// new submissions. The recovered runs include a failed policy run whose
// error holds HTML characters, a quote and invalid UTF-8. Both stores.
func TestListBodyMatchesEncoder(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			var st store.RunStore = store.NewMemory()
			if backend == "disk" {
				d, err := store.OpenDisk(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				st = d
			}
			t.Cleanup(func() { st.Close() })

			// The first service leaves history behind: a sweep, a single
			// cluster run, a single farm run, and a failed policy run
			// recorded with an error no engine gives.
			s1 := NewWith(engine.NewPool(2), Options{Store: st})
			ts1 := httptest.NewServer(s1.Handler())
			var ids []string
			for _, body := range []string{
				`{"sizes":[20,30],"intervals":2}`,
				`{"size":20,"intervals":2,"compare_baseline":true}`,
				`{"kind":"farm","clusters":2,"size":20,"intervals":2}`,
			} {
				_, run := postRun(t, ts1, body, true)
				if run.Status != StatusDone {
					t.Fatalf("seed run %s = %+v", body, run)
				}
				ids = append(ids, run.ID)
			}
			s1.Wait()
			ts1.Close()
			id, seq, err := st.NewID()
			if err != nil {
				t.Fatal(err)
			}
			created := time.Date(2026, 3, 4, 5, 6, 7, 890, time.FixedZone("", -5*3600))
			if err := st.PutRun(store.Record{ID: id, Seq: seq, Status: StatusFailed, Single: true,
				Spec:    json.RawMessage(`{"kind":"policy","seed":2014,"profile":"burst","servers":60,"horizon_seconds":5}`),
				Error:   "bad <spec> & \"quote\" \xff\xfe end",
				Created: created, Started: &created, Finished: &created}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)

			// The second service recovers that history, then takes new
			// submissions, one of which fails.
			s := NewWith(engine.NewPool(2), Options{Store: st})
			if err := s.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() { s.Wait(); ts.Close() })
			for _, body := range []string{
				`{"size":20,"intervals":3}`,
				`{"kind":"policy","horizon_seconds":5}`,
				`{"seeds":[1,2],"size":20,"intervals":2}`,
			} {
				_, run := postRun(t, ts, body, true)
				ids = append(ids, run.ID)
			}

			// Submission order is seq order, recovered and new alike.
			var views []summaryView
			last := int64(-1)
			for _, id := range ids {
				snap := s.snapshot(id)
				if snap == nil || snap.seq <= last {
					t.Fatalf("run %s: snapshot %v after seq %d", id, snap, last)
				}
				last = snap.seq
				views = append(views, summaryOf(typedView(snap)))
			}
			if views[3].Error != "bad <spec> & \"quote\" \xff\xfe end" && views[3].Error != "bad <spec> & \"quote\" \ufffd\ufffd end" {
				t.Fatalf("recovered error = %q", views[3].Error)
			}

			for _, tc := range []struct {
				query, status string
				limit         int
			}{
				{query: "", limit: -1},
				{query: "?limit=1", limit: 1},
				{query: "?limit=2", limit: 2},
				{query: "?status=done", status: StatusDone, limit: -1},
				{query: "?status=failed", status: StatusFailed, limit: -1},
				{query: "?status=failed&limit=1", status: StatusFailed, limit: 1},
				{query: "?status=cancelled", status: StatusCancelled, limit: -1},
			} {
				want := []summaryView{}
				for _, v := range views {
					if tc.status == "" || v.Status == tc.status {
						want = append(want, v)
					}
				}
				if tc.limit >= 0 && len(want) > tc.limit {
					want = want[len(want)-tc.limit:]
				}
				var enc bytes.Buffer
				e := json.NewEncoder(&enc)
				e.SetIndent("", "  ")
				if err := e.Encode(map[string]any{"runs": want}); err != nil {
					t.Fatal(err)
				}
				if got := readAll(t, ts.URL+"/v1/runs"+tc.query); got != enc.String() {
					t.Errorf("GET /v1/runs%s differs from the indenting encoder's output\n got %q\nwant %q", tc.query, got, enc.String())
				}
			}
			if got := readAll(t, ts.URL+"/v1/runs?status=cancelled"); got != "{\n  \"runs\": []\n}\n" {
				t.Errorf("list of a status no run has = %q", got)
			}
		})
	}
}

// TestRegisterKeepsSeqOrder: the submission index holds exactly the
// map's runs, ascending by seq, whatever order Recover registers them in
// and when a run is registered again under its ID.
func TestRegisterKeepsSeqOrder(t *testing.T) {
	s := NewWith(engine.NewPool(1), Options{})
	for _, seq := range []int64{5, 2, 9, 2, 1, 7, 9} {
		s.register(&Run{ID: store.FormatID(seq), seq: seq}, false)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var got []int64
	for _, run := range s.order {
		if s.runs[run.ID] != run {
			t.Errorf("index holds run %s, which the map does not", run.ID)
		}
		got = append(got, run.seq)
	}
	if want := []int64{1, 2, 5, 7, 9}; fmt.Sprint(got) != fmt.Sprint(want) || len(s.runs) != len(want) {
		t.Fatalf("index seqs = %v over %d mapped runs, want %v", got, len(s.runs), want)
	}
}

// FuzzRunJSON pins the spliced answers to json.Marshal: for a run built
// from fuzzed fields — ID, status, error, created time (zero, UTC, or a
// fixed offset, valid or not), started and finished, the single or sweep
// shape, and the presented scenario or spec — the GET body must equal
// json.Marshal of the typed run view and the list entry json.Marshal of
// the typed summary view, byte for byte, and both fail where json.Marshal
// fails.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzRunJSON -fuzztime 15s
func FuzzRunJSON(f *testing.F) {
	f.Add("run-000001", "done", "", uint8(0), int64(0), int32(0), true, "low", 100, true)
	f.Add("run-000002", "failed", "bad <spec> & \"q\" \xff", uint8(1), int64(1_700_000_000_123), int32(0), false, "high", 0, false)
	f.Add("r un", "queued", "line\nbreak\t\\", uint8(2), int64(-1), int32(-5*3600), true, "", 7, true)
	f.Add("", "", "\x00\x1f\x7f", uint8(2), int64(1<<62), int32(86400), false, "<&>", -3, false)
	f.Add("<", ">", "&", uint8(1), int64(0), int32(0), true, "", 0, false)
	f.Add(`"`, `\`, "\x1f", uint8(1), int64(0), int32(0), false, "", 0, false)
	f.Add("run-1000000", "running", "é ü \u2028\u2029", uint8(3), int64(253402300799999), int32(3600+61), false, "mid", 1, true)
	f.Fuzz(func(t *testing.T, id, status, errMsg string, mode uint8, ms int64, offset int32, single bool, band string, n int, timed bool) {
		var created time.Time
		switch mode % 3 {
		case 1:
			created = time.UnixMilli(ms).UTC()
		case 2:
			created = time.UnixMilli(ms).In(time.FixedZone("", int(offset)))
		}
		seed := uint64(n)
		sc := engine.Scenario{Kind: engine.KindCluster, Seed: &seed, Size: n, Band: band, Intervals: n % 50, CompareBaseline: timed}
		run := &Run{ID: id, Status: status, Error: errMsg, Created: created, single: single}
		view := runView{ID: id, Status: status, Error: errMsg, Created: created}
		var presented any = &sc
		if single {
			view.Scenario = &sc
		} else {
			sp := engine.SweepSpec{Scenario: sc, Sizes: []int{n, n + 1}, Bands: []string{band}}
			view.Spec, presented = &sp, &sp
		}
		var err error
		if run.presented, err = json.Marshal(presented); err != nil {
			t.Fatal(err)
		}
		if timed {
			started, finished := created.Add(time.Second), created.Add(time.Duration(ms))
			run.Started, run.Finished = &started, &finished
			view.Started, view.Finished = &started, &finished
			res := engine.Result{Kind: engine.KindCluster, Scenario: sc, JoulesSaved: float64(n)}
			if single {
				view.Result = &res
				run.result, err = json.Marshal(view.Result)
			} else {
				view.Sweep = &engine.SweepResult{Spec: *view.Spec, Cells: []engine.Result{res}}
				run.result, err = json.Marshal(view.Sweep)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		entry := entryOf(run)
		for _, tc := range []struct {
			name string
			got  func([]byte) ([]byte, error)
			want any
		}{
			{"GET body", run.appendJSON, view},
			{"list entry", entry.appendJSON, summaryOf(view)},
		} {
			want, wantErr := json.Marshal(tc.want)
			got, gotErr := tc.got([]byte("prefix"))
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Fatalf("%s: error %v, json.Marshal's %v", tc.name, gotErr, wantErr)
			case wantErr != nil:
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: error %q, json.Marshal's %q", tc.name, gotErr, wantErr)
				}
			case !bytes.Equal(got, append([]byte("prefix"), want...)):
				t.Fatalf("%s\n got %q\nwant prefix%q", tc.name, got, want)
			}
		}
	})
}

// BenchmarkList times GET /v1/runs through the handler over a memory
// store of 200 and of 20,000 done 2-cell sweeps, the shape serve-read
// lists: the newest 20, unfiltered and filtered by status. Both read
// only the runs they answer with, so each costs about the same at both
// sizes.
func BenchmarkList(b *testing.B) {
	spec := engine.SweepSpec{
		Scenario: engine.Scenario{Kind: engine.KindCluster, Size: 20, Band: "low", Intervals: 2},
		Seeds:    []uint64{11, 12},
	}
	ex, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	specJSON, err := json.Marshal(ex.Spec())
	if err != nil {
		b.Fatal(err)
	}
	sw, err := engine.NewPool(1).RunSweep(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(sw)
	if err != nil {
		b.Fatal(err)
	}
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, runs := range []int{200, 20_000} {
		st := store.NewMemory()
		for range runs {
			id, seq, err := st.NewID()
			if err != nil {
				b.Fatal(err)
			}
			if err := st.PutRun(store.Record{ID: id, Seq: seq, Status: StatusDone, Spec: specJSON,
				Result: result, Created: created, Started: &created, Finished: &created}); err != nil {
				b.Fatal(err)
			}
		}
		s := NewWith(engine.NewPool(1), Options{Store: st})
		if err := s.Recover(context.Background()); err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		for _, query := range []string{"limit=20", "status=done&limit=20"} {
			b.Run(fmt.Sprintf("runs=%d/%s", runs, query), func(b *testing.B) {
				req := httptest.NewRequest(http.MethodGet, "/v1/runs?"+query, nil)
				b.ReportAllocs()
				for b.Loop() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				}
			})
		}
	}
}
