package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// testOptions builds the server options for the suite's store backend.
// EALB_TEST_STORE=disk runs every serve test against the durable disk
// store in a test tempdir (the CI race matrix exercises this variant,
// mirroring EALB_TEST_TRACE); anything else keeps the in-memory
// default.
func testOptions(t *testing.T) Options {
	t.Helper()
	if os.Getenv("EALB_TEST_STORE") != "disk" {
		return Options{}
	}
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return Options{Store: d}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWith(engine.NewPool(2), testOptions(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Wait(); ts.Close() })
	return s, ts
}

// runView is the typed view of a run's JSON answer that tests decode
// bodies into: Run's fields, with the recorded result as the engine
// type it encodes — Result for a single run, Sweep for a sweep.
type runView struct {
	ID       string              `json:"id"`
	Status   string              `json:"status"`
	Scenario *engine.Scenario    `json:"scenario,omitempty"`
	Result   *engine.Result      `json:"result,omitempty"`
	Spec     *engine.SweepSpec   `json:"spec,omitempty"`
	Sweep    *engine.SweepResult `json:"sweep,omitempty"`
	Error    string              `json:"error,omitempty"`
	Created  time.Time           `json:"created"`
	Started  *time.Time          `json:"started,omitempty"`
	Finished *time.Time          `json:"finished,omitempty"`
}

// typedView builds a run's typed view, without its result, from the
// run's fields: the scenario of a single run and the spec of a sweep are
// the values its expanded sweep presents.
func typedView(run *Run) runView {
	v := runView{ID: run.ID, Status: run.Status, Error: run.Error,
		Created: run.Created, Started: run.Started, Finished: run.Finished}
	if run.single {
		sc := run.expanded.Cells()[0]
		v.Scenario = &sc
	} else {
		sp := run.expanded.Spec()
		v.Spec = &sp
	}
	return v
}

// viewOf decodes the answer the service gives for run into its typed
// view (a nil run views as nil).
func viewOf(t *testing.T, run *Run) *runView {
	t.Helper()
	if run == nil {
		return nil
	}
	raw, err := run.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var v runView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("run %s answer %.200q: %v", run.ID, raw, err)
	}
	return &v
}

func postRun(t *testing.T, ts *httptest.Server, body string, wait bool) (*http.Response, runView) {
	t.Helper()
	url := ts.URL + "/v1/runs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run runView
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	return resp, run
}

func TestSubmitClusterRunAndFetch(t *testing.T) {
	_, ts := newTestServer(t)

	resp, run := postRun(t, ts,
		`{"kind":"cluster","size":40,"band":"low","seed":2014,"intervals":5,"compare_baseline":true}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if run.Status != StatusDone || run.ID == "" {
		t.Fatalf("run = %+v", run)
	}
	if run.Result == nil || run.Result.Cluster == nil || run.Result.Cluster.Energy <= 0 {
		t.Fatalf("missing cluster result: %+v", run.Result)
	}
	if run.Result.JoulesSaved == 0 {
		t.Error("baseline comparison not reported")
	}

	// The summary endpoint must return the finished run by id.
	get, err := http.Get(ts.URL + "/v1/runs/" + run.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var fetched runView
	if err := json.NewDecoder(get.Body).Decode(&fetched); err != nil {
		t.Fatal(err)
	}
	if fetched.ID != run.ID || fetched.Status != StatusDone {
		t.Errorf("fetched = %+v", fetched)
	}
	if fetched.Result.Cluster.Energy != run.Result.Cluster.Energy {
		t.Error("fetched result drifted from submit-time result")
	}
}

func TestSubmitAsyncThenList(t *testing.T) {
	s, ts := newTestServer(t)

	resp, run := postRun(t, ts, `{"size":40,"intervals":3}`, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	s.Wait() // let the async run finish

	list, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var out struct {
		Runs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(list.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 1 || out.Runs[0].ID != run.ID || out.Runs[0].Status != StatusDone {
		t.Fatalf("list = %+v", out)
	}
}

func TestIntervalStream(t *testing.T) {
	_, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":40,"intervals":4}`, true)

	resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/intervals")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var lines int
	for dec.More() {
		var st struct {
			Index int
			Ratio float64
		}
		if err := dec.Decode(&st); err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if lines != 4 {
		t.Errorf("streamed %d intervals, want 4", lines)
	}
}

func TestIntervalStreamOnPolicyRunConflicts(t *testing.T) {
	_, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"kind":"policy","profile":"burst","servers":20,"horizon_seconds":300}`, true)
	if run.Status != StatusDone {
		t.Fatalf("policy run = %+v", run)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/intervals")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("intervals on policy run: status = %d, want 409", resp.StatusCode)
	}
}

func TestSubmitRejectsBadScenarios(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{`,                      // broken JSON
		`{"unknown_field":true}`, // unknown field
		`{"kind":"quantum"}`,     // bad kind
		`{"band":"sideways"}`,    // bad band
		`{"kind":"cluster","size":10,"intervals":2} trailing-garbage`,            // bytes after the spec
		`{"kind":"cluster","size":10,"intervals":2}{"kind":"cluster","size":20}`, // a second spec
		`{"kind":"cluster","size":10,"intervals":2}}`,                            // a stray brace
		`{"kind":"policy","base_rate":1e17,"horizon_seconds":600,"servers":10}`,  // rate past MaxScenarioRate
		`{"kind":"cluster","size":10,"intervals":2,"clusters":4}`,                // farm field on a cluster
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitRefusedCellMessage: the 400 body carries Expand's message
// for a refused cell, with one engine prefix.
func TestSubmitRefusedCellMessage(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"kind":"cluster","size":10,"intervals":2,"dispatch":"least-loaded"}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	const want = `sweep cell 0: engine: "dispatch" does not apply to a cluster scenario`
	if resp.StatusCode != http.StatusBadRequest || got["error"] != want {
		t.Errorf("status %d, error %q; want 400 and %q", resp.StatusCode, got["error"], want)
	}
}

func TestGetUnknownRun(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/runs/run-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	postRun(t, ts, `{"size":40,"intervals":3,"compare_baseline":true}`, true)

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
		"ealb_runs_started_total 1",
		"ealb_runs_completed_total 1",
		"ealb_service_runs_done 1",
		"ealb_engine_jobs_completed_total 2",      // aware + baseline
		"ealb_engine_intervals_simulated_total 6", // 3 intervals × both jobs
		"ealb_engine_queue_depth 0",
		"ealb_simulated_joules_total ",
		"ealb_simulated_joules_saved_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
