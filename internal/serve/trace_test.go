package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"ealb/internal/trace"
)

// TestTraceEndpoint: a run submitted with "trace":true streams its
// decision events as NDJSON from /v1/runs/{id}/trace — after the run
// finished too, from the store — and the events
// decode into trace.Event values with sane coordinates.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, run := postRun(t, ts, `{"kind":"cluster","size":40,"band":"low","seed":7,"intervals":4,"trace":true}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	tr, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace status = %d", tr.StatusCode)
	}
	if ct := tr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type = %q", ct)
	}
	var events []trace.Event
	sc := bufio.NewScanner(tr.Body)
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	reports := 0
	for _, e := range events {
		if e.Cluster != 0 {
			t.Fatalf("single-cluster event carries cluster %d: %+v", e.Cluster, e)
		}
		if e.Interval < 1 || e.Interval > 4 {
			t.Fatalf("event outside the run's intervals: %+v", e)
		}
		if e.Kind == trace.KindReport {
			reports++
		}
	}
	if reports == 0 {
		t.Error("no regime reports among the traced events")
	}

	// ?cell past the expansion is a 404, and junk is a 400.
	for _, tc := range []struct {
		query string
		code  int
	}{{"?cell=5", http.StatusNotFound}, {"?cell=x", http.StatusBadRequest}} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/trace" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("GET /trace%s status = %d, want %d", tc.query, resp.StatusCode, tc.code)
		}
	}
}

// TestTraceEndpointRequiresFlag: a run submitted without the trace flag
// has no decision trace and answers 409, mirroring /intervals on policy
// runs.
func TestTraceEndpointRequiresFlag(t *testing.T) {
	_, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"kind":"cluster","size":40,"intervals":2}`, true)
	resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("GET /trace on untraced run = %d, want 409", resp.StatusCode)
	}
}

// TestTraceRejectedOnPolicyRun: the engine's validation surfaces as a
// 400 at submit time.
func TestTraceRejectedOnPolicyRun(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"kind":"policy","trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("policy run with trace = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsHistogramExposition pins the histogram exposition shape:
// after a traced run, /metrics carries the engine job histograms, the
// per-phase simulation histograms with phase labels, cumulative bucket
// lines ending at +Inf, and per-route HTTP series labelled by mux
// pattern (not raw URL).
func TestMetricsHistogramExposition(t *testing.T) {
	_, ts := newTestServer(t)
	postRun(t, ts, `{"kind":"cluster","size":40,"intervals":3,"trace":true}`, true)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE ealb_engine_job_run_seconds histogram\n",
		`ealb_engine_job_run_seconds_bucket{le="+Inf"} `,
		"ealb_engine_job_run_seconds_sum ",
		"ealb_engine_job_run_seconds_count ",
		`ealb_sim_phase_seconds_bucket{phase="plan",le="+Inf"} `,
		`ealb_sim_phase_seconds_count{phase="apply"} `,
		`ealb_http_request_duration_seconds_bucket{route="POST /v1/runs",le="+Inf"} 1`,
		`ealb_http_requests_total{route="POST /v1/runs",class="2xx"} 1`,
		"ealb_trace_events_dropped_total 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The smallest finite bound is 1ns = 1e-09 s and series are
	// cumulative: every phase count at +Inf equals its _count.
	if !strings.Contains(body, `le="1e-09"`) {
		t.Error("exposition missing the 1ns bucket bound")
	}
	// Each traced phase observed one sample per simulated interval.
	if !strings.Contains(body, `ealb_sim_phase_seconds_count{phase="plan"} 3`) {
		t.Errorf("plan phase count != intervals:\n%s", grepLines(body, "ealb_sim_phase_seconds_count"))
	}
}

// grepLines returns the exposition lines containing the substring, for
// failure messages.
func grepLines(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
