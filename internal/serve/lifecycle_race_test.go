package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDeleteWhileTailing is the run-lifecycle race regression (run it
// under -race; CI does): DELETE /v1/runs/{id} while NDJSON interval
// tails are attached must not race the tail buffers or deadlock the
// readers, every tail must terminate promptly, and the stream must end
// with the run's cancelled status as its final line.
func TestDeleteWhileTailing(t *testing.T) {
	s, ts := newTestServer(t)
	// Long enough that cancellation, not completion, ends the run.
	_, run := postRun(t, ts, `{"size":300,"intervals":10000}`, false)

	type tailResult struct {
		intervals int
		status    string
		err       error
	}
	const readers = 3
	results := make([]tailResult, readers)
	var started, finished sync.WaitGroup
	for r := 0; r < readers; r++ {
		started.Add(1)
		finished.Add(1)
		go func(r int) {
			defer finished.Done()
			resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/intervals")
			if err != nil {
				started.Done()
				results[r].err = err
				return
			}
			defer resp.Body.Close()
			dec := json.NewDecoder(resp.Body)
			signalled := false
			for dec.More() {
				var line struct {
					Index  int
					Status string `json:"status"`
				}
				if err := dec.Decode(&line); err != nil {
					results[r].err = err
					break
				}
				switch {
				case line.Status != "":
					results[r].status = line.Status
				default:
					results[r].intervals++
				}
				if !signalled {
					// First interval observed: the simulation is live and
					// this tail is attached mid-run.
					signalled = true
					started.Done()
				}
			}
			if !signalled {
				started.Done()
			}
		}(r)
	}

	// Cancel only once every tail is demonstrably attached to a running
	// simulation.
	started.Wait()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+run.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d", del.StatusCode)
	}

	// Every tail must terminate on its own — finished.Wait() hanging here
	// is the deadlock this test exists to catch (the test binary's global
	// timeout turns it into a failure with stacks).
	finished.Wait()
	s.Wait()

	if got := s.snapshot(run.ID).Status; got != StatusCancelled {
		t.Fatalf("run status = %q, want %q", got, StatusCancelled)
	}
	for r, res := range results {
		if res.err != nil {
			t.Errorf("tail %d failed: %v", r, res.err)
		}
		if res.status != StatusCancelled {
			t.Errorf("tail %d terminal line status = %q, want %q", r, res.status, StatusCancelled)
		}
	}
}

// serviceGauges scrapes /metrics and returns the five service run-status
// gauges by status name.
func serviceGauges(t *testing.T, ts *httptest.Server) map[string]int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	gauges := map[string]int{}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, "ealb_service_runs_")
		if !ok {
			continue
		}
		name, value, _ := strings.Cut(rest, " ")
		n, err := strconv.Atoi(value)
		if err != nil {
			t.Fatalf("malformed gauge line %q", line)
		}
		gauges[name] = n
	}
	return gauges
}

// TestMetricsWhileSweepRuns scrapes /metrics while a sweep's runs change
// status (run it under -race; CI does): the scrape reads every run's
// status, which the runs write as they start and finish. Every scrape
// must account for each submitted run exactly once.
func TestMetricsWhileSweepRuns(t *testing.T) {
	s, ts := newTestServer(t)
	const runs = 3
	for range runs {
		postRun(t, ts, `{"sizes":[40,60],"seeds":[1,2],"intervals":20}`, false)
	}
	for {
		g := serviceGauges(t, ts)
		total := g["queued"] + g["running"] + g["done"] + g["failed"] + g["cancelled"]
		if total != runs {
			t.Fatalf("gauges %v account for %d runs, want %d", g, total, runs)
		}
		if g["done"] == runs {
			break
		}
		if g["failed"]+g["cancelled"] > 0 {
			t.Fatalf("gauges %v: a run did not finish", g)
		}
	}
	s.Wait()
}

// TestShutdownWhileSubmitting calls Shutdown while submissions arrive
// (run it under -race; CI does): each submission reads the draining flag
// that Shutdown sets. Every submission is either accepted and finished
// by the drain, or refused with 503, and none is accepted after
// Shutdown returns.
func TestShutdownWhileSubmitting(t *testing.T) {
	s, ts := newTestServer(t)
	const submitters = 4
	var wg sync.WaitGroup
	var first sync.Once
	started := make(chan struct{})
	accepted := make([][]string, submitters)
	for i := range submitters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer first.Do(func() { close(started) })
			for {
				resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"size":40,"intervals":2}`))
				if err != nil {
					t.Error(err)
					return
				}
				var run runView
				err = json.NewDecoder(resp.Body).Decode(&run)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusServiceUnavailable:
					return
				case resp.StatusCode != http.StatusAccepted || err != nil:
					t.Errorf("submit status = %d (%v), want 202 or 503", resp.StatusCode, err)
					return
				}
				accepted[i] = append(accepted[i], run.ID)
				first.Do(func() { close(started) })
			}
		}(i)
	}
	// Drain once a submission is in, while the submitters keep going.
	<-started
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, ids := range accepted {
		for _, id := range ids {
			if got := s.snapshot(id).Status; got != StatusDone {
				t.Errorf("accepted run %s status = %q after the drain, want %q", id, got, StatusDone)
			}
		}
	}
}
