package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/farm"
	"ealb/internal/store"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// FuzzResultSplice pins the splices to json.Marshal and the walker to
// the lines they splice in. From fuzzed interval stats it builds a
// cluster cell, a farm cell and a policy cell, then a SweepResult of 1–3
// of them: each cell's spliced checkpoint and the spliced record must
// equal json.Marshal of the typed value byte for byte, and the walker
// must give back exactly the json.Marshal line of every stat. The raw
// fuzz bytes are walked too, which must never panic.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzResultSplice -fuzztime 15s
func FuzzResultSplice(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), `low`)
	f.Add(uint64(2), uint8(0), uint8(0), ``)
	f.Add(uint64(3), uint8(1), uint8(1), `"Stats":null,{"cluster":[`)
	f.Add(uint64(4), uint8(7), uint8(4), `{"cells":[{"kind":"cluster","cluster":{"Stats":[1,2]}}]}`)
	f.Add(uint64(5), uint8(2), uint8(5), "\\\"}] <&>")
	f.Fuzz(func(t *testing.T, seed uint64, n, cells uint8, text string) {
		// Arbitrary bytes: the walker and the Recover check stay in bounds.
		raw := []byte(text)
		for n := range 4 {
			for _, single := range []bool{true, false} {
				at, _ := statsOffsets(raw, single, n)
				for _, i := range at {
					elements(raw, i)
				}
			}
		}
		for i := range min(len(raw), 64) {
			elements(raw, i)
		}
		checkResult(raw, cells%2 == 0, true, int(cells%4))

		r := rand.New(rand.NewPCG(seed, uint64(n)))
		num := func() float64 {
			switch r.IntN(6) {
			case 0:
				return 0
			case 1:
				return float64(r.IntN(1000))
			case 2: // 'e' notation on both sides of encoding/json's cutoffs
				return math.Ldexp(r.Float64(), r.IntN(160)-80)
			case 3:
				return -r.Float64() * 1e21
			}
			return r.NormFloat64() * 1e3
		}
		clusterStat := func(i int) cluster.IntervalStats {
			st := cluster.IntervalStats{
				Index: i + 1, EndTime: units.Seconds(num()), Sleeping: r.IntN(50), Woken: r.IntN(5),
				Decisions: cluster.Counts{Local: r.IntN(9), InCluster: r.IntN(9)}, Ratio: num(),
				Migrations: r.IntN(4), SLAViolations: r.IntN(3), ClusterLoad: units.Fraction(r.Float64()),
				IntervalEnergy: units.Joules(num()), AvgQCost: units.Joules(num()),
				AvgPCost: units.Joules(num()), AvgJCost: units.Joules(num()),
			}
			for k := range st.Regimes {
				st.Regimes[k] = r.IntN(100)
			}
			if r.IntN(2) == 0 {
				av := r.Float64()
				st.Failures, st.Repairs, st.FailedCount, st.Availability = r.IntN(3), r.IntN(3), r.IntN(3), &av
			}
			return st
		}
		sc := engine.Scenario{Kind: engine.KindCluster, Size: 1 + int(n), Band: text, Intervals: int(n)}
		count := int(n % 6)
		var cs []cluster.IntervalStats // nil when count is 0, as a run of no intervals has
		var fs []farm.IntervalStats
		for i := range count {
			cs = append(cs, clusterStat(i))
			fst := farm.IntervalStats{Index: i + 1, EndTime: units.Seconds(num()), OverloadFraction: num(),
				Dispatched: r.IntN(20), Rejected: r.IntN(2), IntervalEnergy: units.Joules(num())}
			for k := range r.IntN(3) {
				fst.Clusters = append(fst.Clusters, clusterStat(k))
			}
			fs = append(fs, fst)
		}
		if count == 0 && seed%2 == 1 {
			cs, fs = []cluster.IntervalStats{}, []farm.IntervalStats{} // non-nil and empty: "[]"
		}
		fsc := sc
		fsc.Kind, fsc.Clusters, fsc.Dispatch = engine.KindFarm, 2, text
		results := []engine.Result{
			{Kind: engine.KindCluster, Scenario: sc, AlwaysOnJoules: num(), JoulesSaved: num(),
				Cluster: &engine.ClusterRun{Size: sc.Size, Band: workload.Band{Lo: num(), Hi: num()},
					Before: [5]int{r.IntN(9)}, Stats: cs, MeanRatio: num(), Energy: num(), Availability: 1}},
			{Kind: engine.KindFarm, Scenario: fsc,
				Farm: &engine.FarmRun{Clusters: 2, Dispatch: text, Stats: fs, Energy: num(), Rejected: r.IntN(5)}},
			{Kind: engine.KindPolicy, Scenario: engine.Scenario{Kind: engine.KindPolicy, Profile: text}},
		}
		statLines := func(res engine.Result) [][]byte {
			var lines [][]byte
			add := func(st any) {
				line, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, line)
			}
			switch {
			case res.Cluster != nil:
				for _, st := range res.Cluster.Stats {
					add(st)
				}
			case res.Farm != nil:
				for _, st := range res.Farm.Stats {
					add(st)
				}
			}
			return lines
		}
		checkLines := func(what string, got [][]byte, ok bool, want [][]byte) {
			t.Helper()
			if !ok || len(got) != len(want) {
				t.Fatalf("%s: walker gave %d lines (ok %v), want %d", what, len(got), ok, len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: line %d\n got %s\nwant %s", what, i, got[i], want[i])
				}
			}
		}

		encoded := make([][]byte, len(results))
		for i, res := range results {
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			lines := statLines(res)
			got, err := cellJSON(res, lines)
			if err != nil {
				t.Fatalf("cell %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("cell %d checkpoint\n got %s\nwant %s", i, got, want)
			}
			if res.Kind != engine.KindPolicy {
				walked, ok := statsLines(got, true, 1, 0)
				checkLines("single "+res.Kind, walked, ok, lines)
			}
			encoded[i] = got
		}

		pick := make([]int, 1+int(cells%3))
		sw := engine.SweepResult{Spec: engine.SweepSpec{Scenario: sc, Sizes: []int{int(n)}}}
		for i := range pick {
			pick[i] = r.IntN(len(results))
			sw.Cells = append(sw.Cells, results[pick[i]])
			sw.Aggregates = append(sw.Aggregates, engine.Aggregate{Group: text, Cells: i, Energy: engine.Stat{Mean: num()}})
		}
		if cells%5 == 4 {
			sw.Aggregates = nil // encodes as null
		}
		want, err := json.Marshal(sw)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]byte, len(pick))
		for i, p := range pick {
			parts[i] = encoded[p]
		}
		got, err := sweepJSON(sw.Spec, parts, sw.Aggregates)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("sweep record\n got %s\nwant %s", got, want)
		}
		streaming := true
		for _, p := range pick {
			streaming = streaming && results[p].Kind != engine.KindPolicy
		}
		if !streaming {
			return // a sweep is of one kind; policy cells have no streams
		}
		for i, p := range pick {
			walked, ok := statsLines(got, false, len(pick), i)
			checkLines("sweep cell", walked, ok, statLines(results[p]))
		}
	})
}

// statsLines walks the interval lines of one of a recorded result's
// cells back out of it, the way a done run's stream does.
func statsLines(result []byte, single bool, cells, cell int) ([][]byte, bool) {
	at, err := statsOffsets(result, single, cells)
	if err != nil {
		return nil, false
	}
	return elements(result, at[cell])
}

// prechangeAnswer is one answer the service gave, before results were
// kept as bytes, for a store it had written.
type prechangeAnswer struct {
	Path   string `json:"path"`
	Status int    `json:"status"`
	Body   string `json:"body"`
}

// TestRecoverPrechangeStore: a disk store written by the service before
// finished runs were kept as their record bytes — a done 2-cell cluster
// sweep, a done single farm run and a failed policy run — recovers to
// the same answers that service gave for it after a restart, byte for
// byte: list, GET, every interval stream and the error answers.
func TestRecoverPrechangeStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/prechange/store")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("testdata/prechange/answers.json")
	if err != nil {
		t.Fatal(err)
	}
	var answers []prechangeAnswer
	if err := json.Unmarshal(raw, &answers); err != nil {
		t.Fatal(err)
	}
	s, ts, _ := diskServer(t, dir, 1, Options{Owner: "fixture"})
	if err := s.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, want := range answers {
		resp, err := http.Get(ts.URL + want.Path)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want.Status || body.String() != want.Body {
			t.Errorf("GET %s = %d, %d bytes; want %d, %d bytes\n got %.300q\nwant %.300q",
				want.Path, resp.StatusCode, body.Len(), want.Status, len(want.Body), body.String(), want.Body)
		}
	}
}

// TestUnreadableRecordedResult: a recovered done run whose recorded
// result does not load is reported, not served as a silent empty run.
// GET carries the reason in "error" and no result; the interval stream
// closes with the {"error","status"} line failed runs end with; the
// service logs it. Both stores.
func TestUnreadableRecordedResult(t *testing.T) {
	spec := func(body string) json.RawMessage {
		var sp engine.SweepSpec
		if err := json.Unmarshal([]byte(body), &sp); err != nil {
			t.Fatal(err)
		}
		ex, err := sp.Expand()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(ex.Spec())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	// stat is a single cluster result whose one interval stat holds v.
	// The structural walker finds its Stats array whatever v is, so only
	// the validator stands between an invalid v and the answers.
	stat := func(v string) string {
		return `{"kind":"cluster","cluster":{"Stats":[{"Index":1,"X":` + v + `}]}}`
	}
	cases := []struct {
		name, result, reason string
		single               bool
		walkable             bool // statsOffsets finds every cell's Stats
	}{
		{name: "cells not an array", result: `{"cells":"oops"}`, reason: "cell 0 has no interval stats"},
		{name: "second cell missing", result: `{"spec":{},"cells":[{"kind":"cluster","cluster":{"Stats":[{"Index":1}]}}],"aggregates":[]}`,
			reason: "cell 1 has no interval stats"},
		{name: "stats not an array", result: `{"kind":"cluster","cluster":{"Stats":7}}`, single: true, reason: "cell 0 has no interval stats"},
		// PutRun cannot encode invalid JSON, so the disk record is written
		// by hand. A member lacks its value, but the brackets close: a
		// result torn inside a string tears the whole record, which
		// Recover skips as corrupt (TestRecoverSkipsCorruptRecord).
		{name: "not JSON", result: `{"kind":"cluster","cluster":}`, single: true, reason: "not valid JSON"},
		{name: "empty", result: ``, single: true, reason: "not valid JSON"},
		{name: "raw control byte", result: stat("\"a\x1fb\""), single: true, walkable: true, reason: "not valid JSON"},
		{name: "unknown escape", result: stat(`"a\xb"`), single: true, walkable: true, reason: "not valid JSON"},
		{name: "bad unicode escape", result: stat(`"\u12G4"`), single: true, walkable: true, reason: "not valid JSON"},
		{name: "leading zero", result: stat(`01`), single: true, walkable: true, reason: "not valid JSON"},
		{name: "no fraction digits", result: stat(`1.`), single: true, walkable: true, reason: "not valid JSON"},
		{name: "lone minus", result: stat(`-`), single: true, walkable: true, reason: "not valid JSON"},
		// The object, cluster, Stats and stat levels plus 9,997 arrays:
		// one level past encoding/json's limit of 10,000.
		{name: "nested 10001 deep", result: stat(strings.Repeat("[", 9997) + strings.Repeat("]", 9997)),
			single: true, walkable: true, reason: "not valid JSON"},
	}
	for _, backend := range []string{"memory", "disk"} {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				var st store.RunStore = store.NewMemory()
				dir := t.TempDir()
				if backend == "disk" {
					d, err := store.OpenDisk(dir)
					if err != nil {
						t.Fatal(err)
					}
					st = d
				}
				t.Cleanup(func() { st.Close() })
				rec := store.Record{ID: store.FormatID(1), Seq: 1, Status: StatusDone, Single: tc.single,
					Spec: spec(`{"sizes":[20,30],"intervals":2}`), Result: json.RawMessage(tc.result),
					Created: created, Started: &created, Finished: &created}
				if tc.single {
					rec.Spec = spec(`{"size":20,"intervals":2}`)
				}
				if tc.walkable {
					if json.Valid(rec.Result) {
						t.Fatal("result is valid JSON")
					}
					if _, err := statsOffsets(rec.Result, tc.single, 1); err != nil {
						t.Fatalf("the walker does not accept the result: %v", err)
					}
				}
				if backend == "disk" && tc.result != "" && !json.Valid(rec.Result) {
					putRecordByHand(t, dir, rec)
				} else if err := st.PutRun(rec); err != nil {
					t.Fatal(err)
				}
				var logs bytes.Buffer
				s := NewWith(engine.NewPool(1), Options{Store: st})
				s.SetLogger(slog.New(slog.NewTextHandler(&logs, nil)))
				if err := s.Recover(context.Background()); err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s.Handler())
				t.Cleanup(ts.Close)

				errMsg := "recorded result unreadable: " + tc.reason
				var got runView
				if err := json.Unmarshal([]byte(readAll(t, ts.URL+"/v1/runs/"+rec.ID)), &got); err != nil {
					t.Fatal(err)
				}
				if got.Status != StatusDone || got.Error != errMsg || got.Result != nil || got.Sweep != nil {
					t.Errorf("GET = %+v, want done with error %q and no result", got, errMsg)
				}
				status, err := json.Marshal(map[string]string{"status": StatusDone, "error": errMsg})
				if err != nil {
					t.Fatal(err)
				}
				if body := readAll(t, ts.URL+"/v1/runs/"+rec.ID+"/intervals"); body != string(status)+"\n" {
					t.Errorf("/intervals = %q, want the status line %s", body, status)
				}
				if !strings.Contains(logs.String(), "recorded result unreadable") || !strings.Contains(logs.String(), rec.ID) {
					t.Errorf("nothing logged for the unreadable result; log:\n%s", logs.String())
				}
			})
		}
	}
}

// putRecordByHand writes rec as the disk store in dir would, with its
// Result bytes as they are, valid JSON or not, where PutRun would
// refuse to encode invalid ones.
func putRecordByHand(t *testing.T, dir string, rec store.Record) {
	t.Helper()
	result := rec.Result
	rec.Result = json.RawMessage(`0`)
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`"result":0`), append([]byte(`"result":`), result...), 1)
	runDir := filepath.Join(dir, "runs", rec.ID)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(runDir, "run.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateResultKey: a disk record holding "result" twice serves
// the value json.Unmarshal decodes, the last one. With the run's own
// result last, the run answers as before the decoy was added; with the
// decoy last, the decoy is its result and, holding no interval stats,
// is reported unreadable.
func TestDuplicateResultKey(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, d := diskServer(t, dir, 1, Options{})
	_, run := postRun(t, ts1, `{"sizes":[20,30],"intervals":3}`, true)
	s1.Wait()
	path := filepath.Join(dir, "runs", run.ID, "run.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := d.GetRun(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	member := append([]byte(`"result":`), rec.Result...)
	at := bytes.Index(raw, member)
	if at < 0 || bytes.Count(raw, []byte(`"result":`)) != 1 {
		t.Fatalf("record holds no single result member: %.200q", raw)
	}
	decoy := []byte(`"result":{"spec":{},"cells":[]}`)
	paths := []string{"/v1/runs/" + run.ID, "/v1/runs/" + run.ID + "/intervals?cell=1"}
	answers := func(t *testing.T) []string {
		t.Helper()
		s, ts, _ := diskServer(t, dir, 1, Options{})
		if err := s.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, p := range paths {
			out = append(out, readAll(t, ts.URL+p))
		}
		return out
	}
	want := answers(t)

	t.Run("own result last", func(t *testing.T) {
		edited := slices.Concat(raw[:at], decoy, []byte(","), raw[at:])
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := answers(t); !slices.Equal(got, want) {
			t.Errorf("answers = %.200q\nwant %.200q", got, want)
		}
	})
	t.Run("decoy last", func(t *testing.T) {
		end := at + len(member)
		edited := slices.Concat(raw[:end], []byte(","), decoy, raw[end:])
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		var got runView
		if err := json.Unmarshal([]byte(answers(t)[0]), &got); err != nil {
			t.Fatal(err)
		}
		if errMsg := "recorded result unreadable: cell 0 has no interval stats"; got.Error != errMsg || got.Sweep != nil {
			t.Errorf("GET = %+v, want error %q and no result", got, errMsg)
		}
	})
}

// BenchmarkWalker measures the walker on serve-read's shape of record,
// a 2-cell sweep of 100 servers over 40 intervals. "offsets" is the
// walk over the whole record that Recover and a finishing run make once;
// "stream" slices the lines of one cell from its offset, the walk of a
// done run's interval stream. Bytes/s is over the bytes each walks.
func BenchmarkWalker(b *testing.B) {
	spec := engine.SweepSpec{
		Scenario: engine.Scenario{Kind: engine.KindCluster, Size: 100, Band: "low", Intervals: 40},
		Seeds:    []uint64{11, 12},
	}
	sw, err := engine.NewPool(1).RunSweep(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(sw)
	if err != nil {
		b.Fatal(err)
	}
	at, err := statsOffsets(result, false, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("offsets", func(b *testing.B) {
		b.SetBytes(int64(len(result)))
		for b.Loop() {
			if _, err := statsOffsets(result, false, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(store.SkipValue(result, at[1]) - at[1]))
		b.ReportAllocs()
		for b.Loop() {
			if lines, ok := elements(result, at[1]); !ok || len(lines) != 40 {
				b.Fatalf("walker gave %d lines (ok %v), want 40", len(lines), ok)
			}
		}
	})
}
