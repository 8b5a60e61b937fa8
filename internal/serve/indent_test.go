package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ealb/internal/engine"
)

// FuzzAppendIndent pins appendIndent to json.Indent: arbitrary bytes
// that decode as JSON are re-encoded by json.Marshal, the only input
// writeJSON gives appendIndent, and both indenters must then append
// the same bytes.
//
//	go test ./internal/serve -run '^$' -fuzz FuzzAppendIndent -fuzztime 15s
func FuzzAppendIndent(f *testing.F) {
	for _, doc := range []string{
		`{"q":"say \"hi\"","path":"C:\\dir\\","mixed":"\\\"\\"}`,
		`"line\u2028para\u2029end"`,
		`{"<tag>":"a && b > c"}`,
		`{}`,
		`[]`,
		`{"a":{},"b":[],"c":[{}],"d":[[]],"e":{"f":{"g":[]}}}`,
		`[1e21,-1e-7,-0.5,6.02e23,-3,0,123456789012]`,
		`{"k:":"v,","[":"]{}","{\"}":"\\"}`,
		`[null,true,false,"",[null]]`,
		`{"runs":[{"id":"run-000001","status":"done","spec":{"sizes":[100,1000],"seeds":[1,2]}}]}`,
		`"\u0000\u001f\ufffd\t\n\r"`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("re-encode %q: %v", data, err)
		}
		var want bytes.Buffer
		want.WriteString("prefix")
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatalf("json.Indent(%q): %v", compact, err)
		}
		if got := appendIndent([]byte("prefix"), compact); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndent(%q)\n got %q\nwant %q", compact, got, want.Bytes())
		}
	})
}

// TestAppendIndentDeep checks appendIndent against json.Indent at every
// depth up to well past the indent appendNewline copies in one piece
// (newlineIndent), where it adds the remaining spaces in further copies.
func TestAppendIndentDeep(t *testing.T) {
	for n := 0; n <= len(newlineIndent); n++ {
		// 2n+1 levels: n objects, each holding an array, around [1,2].
		compact := []byte(strings.Repeat(`{"a":[`, n) + `[1,2]` + strings.Repeat(`]}`, n))
		var want bytes.Buffer
		if err := json.Indent(&want, compact, "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d levels:\n got %q\nwant %q", 2*n+1, got, want.Bytes())
		}
	}
}

// TestGetBodyMatchesIndentEncoder: a finished run's GET body — the
// envelope appendJSON builds around the recorded result bytes — is the
// byte stream json.Encoder with SetIndent("", "  ") writes for the
// typed view of the same run, built from the run's fields and a result
// the engine computes afresh for the run's spec: the encoding the
// service answered with before the result was kept as bytes. The
// recorded bytes must equal json.Marshal of that fresh result, so a
// splice that drifts from the engine's values fails here. It covers a
// sweep, a single run, and a failed run, which has no result.
func TestGetBodyMatchesIndentEncoder(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct{ body, status string }{
		{`{"sizes":[40,60],"seeds":[3],"intervals":5,"compare_baseline":true}`, StatusDone},
		{`{"kind":"farm","clusters":2,"size":20,"intervals":3}`, StatusDone},
		{`{"kind":"policy","horizon_seconds":5}`, StatusFailed},
	} {
		_, run := postRun(t, ts, tc.body, true)
		if run.Status != tc.status || (tc.status == StatusDone) == (run.Sweep == nil && run.Result == nil) {
			t.Fatalf("run = %+v", run)
		}
		got := readAll(t, ts.URL+"/v1/runs/"+run.ID)

		snap := s.snapshot(run.ID)
		view := typedView(snap)
		if snap.Status == StatusDone {
			fresh, err := engine.NewPool(1).RunSweep(context.Background(), snap.expanded.Spec())
			if err != nil {
				t.Fatal(err)
			}
			result := any(&fresh)
			if view.Sweep = &fresh; snap.single {
				view.Sweep, view.Result = nil, &fresh.Cells[0]
				result = view.Result
			}
			want, err := json.Marshal(result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(snap.result, want) {
				t.Fatalf("recorded result differs from the engine's\n got %.300s\nwant %.300s", snap.result, want)
			}
		} else if snap.result != nil {
			t.Fatalf("%s run recorded a result", snap.Status)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(view); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Fatalf("GET body differs from the indenting encoder's output\n got %q\nwant %q", got, want.String())
		}
	}
}

// TestWriteJSONEncodeError: a value json.Marshal rejects answers 500
// with an error body, not the requested status with an empty body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q: %v", rec.Body.String(), err)
	}
	if !strings.Contains(body.Error, "unsupported value") {
		t.Errorf("error = %q, want the encoder's reason", body.Error)
	}
}
