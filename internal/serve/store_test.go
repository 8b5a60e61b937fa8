package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// diskServer builds a server over a disk store in dir, so tests can
// "restart" the service by building another one over the same dir.
func diskServer(t *testing.T, dir string, workers int, opts Options) (*Server, *httptest.Server, *store.Disk) {
	t.Helper()
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	opts.Store = d
	s := NewWith(engine.NewPool(workers), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Wait(); ts.Close() })
	return s, ts, d
}

// TestKillResumeByteIdentical is the tentpole acceptance test: a sweep
// interrupted mid-cell resumes after a restart against the same store
// directory and finishes byte-identical to the same spec run
// uninterrupted.
func TestKillResumeByteIdentical(t *testing.T) {
	// Four cells on one worker run strictly serially, so interrupting
	// after the first checkpoint reliably leaves completed and
	// incomplete cells behind.
	body := `{"sizes":[300],"seeds":[1,2,3,4],"intervals":600,"compare_baseline":true}`

	// Reference: the same spec, uninterrupted.
	_, want := postRun(t, newServerForBody(t), body, true)
	if want.Status != StatusDone || want.Sweep == nil {
		t.Fatalf("reference run = %+v", want)
	}
	wantRaw, err := json.Marshal(want.Sweep)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s1, ts1, d1 := diskServer(t, dir, 1, Options{Owner: "node-a"})
	_, run := postRun(t, ts1, body, false)

	// Wait for the first cell checkpoint, then "kill" the run: DELETE
	// stops the engine mid-sweep exactly like process death would, and
	// forging the record back to running reproduces the on-disk state an
	// actual crash leaves (a crashed process never writes a terminal
	// record or releases its lease).
	deadline := time.Now().Add(30 * time.Second)
	for {
		cells, err := d1.Cells(run.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell checkpoint appeared")
		}
		time.Sleep(200 * time.Microsecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/runs/"+run.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	s1.Wait()

	checkpointed, err := d1.Cells(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpointed) == 0 || len(checkpointed) >= 4 {
		t.Fatalf("interruption checkpointed %d of 4 cells; the test needs a strict subset", len(checkpointed))
	}
	rec, ok, err := d1.GetRun(run.ID)
	if err != nil || !ok {
		t.Fatalf("record: ok=%v err=%v", ok, err)
	}
	rec.Status = StatusRunning
	rec.Error = ""
	rec.Finished = nil
	if err := d1.PutRun(rec); err != nil {
		t.Fatal(err)
	}
	if ok, err := d1.Claim(run.ID, "node-a", time.Hour); err != nil || !ok {
		t.Fatalf("re-arming crash lease: ok=%v err=%v", ok, err)
	}

	// Restart: same dir, same owner — the replica reclaims its own lease
	// immediately and resumes from the checkpoints.
	s2, ts2, _ := diskServer(t, dir, 1, Options{Owner: "node-a"})
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2.Wait()
	snap := s2.snapshot(run.ID)
	got := viewOf(t, snap)
	if snap == nil || snap.Status != StatusDone || got.Sweep == nil {
		t.Fatalf("resumed run = %+v", snap)
	}
	if len(snap.resume) != len(checkpointed) {
		t.Fatalf("resume map has %d cells, want %d", len(snap.resume), len(checkpointed))
	}
	gotRaw, err := json.Marshal(got.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Fatalf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(gotRaw), len(wantRaw))
	}
	if string(snap.result) != string(wantRaw) {
		t.Fatalf("resumed run's recorded bytes are not the result's encoding (%d vs %d bytes)", len(snap.result), len(wantRaw))
	}

	// Regression (the restart-ID-collision bug): the restarted process
	// must never reuse a persisted ID.
	_, run2 := postRun(t, ts2, `{"size":20,"intervals":2}`, true)
	if run2.ID == run.ID {
		t.Fatalf("restarted service reused run ID %q", run.ID)
	}
	if run2.ID <= run.ID {
		t.Fatalf("restarted service minted %q, not past persisted %q", run2.ID, run.ID)
	}
}

// TestRecoverSkipsOutOfRangeCheckpoint: a checkpoint line that parses
// but names a cell the run does not have — negative or past the last
// cell — is skipped at Recover like a torn line, not resumed from. The
// run finishes with the result and interval streams it had before.
func TestRecoverSkipsOutOfRangeCheckpoint(t *testing.T) {
	body := `{"sizes":[40,60],"intervals":5}`
	dir := t.TempDir()
	s1, ts1, d1 := diskServer(t, dir, 1, Options{Owner: "node-a"})
	_, run := postRun(t, ts1, body, true)
	s1.Wait()
	done := s1.snapshot(run.ID)
	if done.Status != StatusDone {
		t.Fatalf("run = %+v", done)
	}
	streams := make([]string, 2)
	for cell := range streams {
		streams[cell] = readAll(t, fmt.Sprintf("%s/v1/runs/%s/intervals?cell=%d", ts1.URL, run.ID, cell))
	}

	// Back to running, with a good checkpoint of cell 0 and two that
	// parse but name no cell of the run.
	cell0, err := json.Marshal(viewOf(t, done).Sweep.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []int{0, 9, -1} {
		if err := d1.PutCell(run.ID, store.CellResult{Cell: cell, Result: cell0}); err != nil {
			t.Fatal(err)
		}
	}
	rec, _, err := d1.GetRun(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	rec.Status, rec.Finished, rec.Result = StatusRunning, nil, nil
	if err := d1.PutRun(rec); err != nil {
		t.Fatal(err)
	}

	s2, ts2, _ := diskServer(t, dir, 1, Options{Owner: "node-a"})
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	s2.Wait()
	snap := s2.snapshot(run.ID)
	if snap == nil || snap.Status != StatusDone {
		t.Fatalf("resumed run = %+v", snap)
	}
	if len(snap.resume) != 1 {
		t.Fatalf("resume map has %d cells, want only cell 0", len(snap.resume))
	}
	if string(snap.result) != string(done.result) {
		t.Fatalf("resumed result differs (%d vs %d bytes)", len(snap.result), len(done.result))
	}
	for cell, want := range streams {
		if got := readAll(t, fmt.Sprintf("%s/v1/runs/%s/intervals?cell=%d", ts2.URL, run.ID, cell)); got != want {
			t.Errorf("cell %d stream differs after resume (%d vs %d bytes)", cell, len(got), len(want))
		}
	}
}

// TestRecoverSkipsCorruptRecord: a disk record that does not decode —
// emptied or torn by a power loss, or holding a field of the wrong type
// — no longer stops the service from booting. Recover logs it and
// skips it; the runs around it answer byte for byte as before, and its
// ID is not issued again.
func TestRecoverSkipsCorruptRecord(t *testing.T) {
	bodies := []string{`{"size":20,"intervals":3}`, `{"sizes":[20,30],"intervals":3}`, `{"size":30,"intervals":3,"seed":7}`}
	corruptions := []struct {
		name string
		edit func(raw []byte) []byte
	}{
		{"empty", func([]byte) []byte { return nil }},
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"seq not a number", func(raw []byte) []byte { return bytes.Replace(raw, []byte(`"seq":2,`), []byte(`"seq":"x",`), 1) }},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1, _ := diskServer(t, dir, 1, Options{})
			var ids []string
			for _, body := range bodies {
				_, run := postRun(t, ts1, body, true)
				ids = append(ids, run.ID)
			}
			s1.Wait()
			kept := []string{ids[0], ids[2]}
			var paths []string
			for _, id := range kept {
				paths = append(paths, "/v1/runs/"+id, "/v1/runs/"+id+"/intervals")
			}
			recovered := func(t *testing.T, logs *bytes.Buffer) (*httptest.Server, []string) {
				t.Helper()
				s, ts, _ := diskServer(t, dir, 1, Options{})
				s.SetLogger(slog.New(slog.NewTextHandler(logs, nil)))
				if err := s.Recover(context.Background()); err != nil {
					t.Fatalf("Recover: %v", err)
				}
				var out []string
				for _, p := range paths {
					out = append(out, readAll(t, ts.URL+p))
				}
				return ts, out
			}
			_, want := recovered(t, &bytes.Buffer{})

			path := filepath.Join(dir, "runs", ids[1], "run.json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := c.edit(raw)
			if bytes.Equal(edited, raw) {
				t.Fatalf("edit left the record as it was: %.200q", raw)
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
			var logs bytes.Buffer
			ts, got := recovered(t, &logs)
			for i := range paths {
				if got[i] != want[i] {
					t.Errorf("GET %s after the skip = %.200q, want %.200q", paths[i], got[i], want[i])
				}
			}
			if !strings.Contains(logs.String(), "skipping run whose record does not decode") || !strings.Contains(logs.String(), ids[1]) {
				t.Errorf("nothing logged for the corrupt record; log:\n%s", logs.String())
			}
			if resp, err := http.Get(ts.URL + "/v1/runs/" + ids[1]); err != nil || resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET of the skipped run = %v, %v; want 404", resp, err)
			} else {
				resp.Body.Close()
			}
			var list struct {
				Runs []struct {
					ID string `json:"id"`
				} `json:"runs"`
			}
			if err := json.Unmarshal([]byte(readAll(t, ts.URL+"/v1/runs")), &list); err != nil {
				t.Fatal(err)
			}
			if len(list.Runs) != 2 || list.Runs[0].ID != kept[0] || list.Runs[1].ID != kept[1] {
				t.Errorf("list = %+v, want %s then %s", list.Runs, kept[0], kept[1])
			}
			if _, run := postRun(t, ts, bodies[0], true); run.ID <= ids[2] {
				t.Errorf("new run got %s, want an ID past %s", run.ID, ids[2])
			}
		})
	}
}

// newServerForBody builds an isolated default (memory-store) server.
func newServerForBody(t *testing.T) *httptest.Server {
	t.Helper()
	s := NewWith(engine.NewPool(1), Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Wait(); ts.Close() })
	return ts
}

// TestRestartRecoversHistory: finished runs survive a restart — the
// record, the result, and GET /v1/runs ordering.
func TestRestartRecoversHistory(t *testing.T) {
	dir := t.TempDir()
	_, ts1, _ := diskServer(t, dir, 2, Options{})
	_, r1 := postRun(t, ts1, `{"size":20,"intervals":3}`, true)
	_, r2 := postRun(t, ts1, `{"sizes":[20,30],"intervals":3}`, true)
	if r1.Status != StatusDone || r2.Status != StatusDone {
		t.Fatalf("seed runs: %+v / %+v", r1, r2)
	}

	s2, ts2, _ := diskServer(t, dir, 2, Options{})
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts2.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Runs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 2 || list.Runs[0].ID != r1.ID || list.Runs[1].ID != r2.ID {
		t.Fatalf("recovered list = %+v", list.Runs)
	}
	snap := viewOf(t, s2.snapshot(r1.ID))
	if snap == nil || snap.Status != StatusDone || snap.Result == nil {
		t.Fatalf("recovered single run = %+v", snap)
	}
	if got := viewOf(t, s2.snapshot(r2.ID)); got == nil || got.Sweep == nil || len(got.Sweep.Cells) != 2 {
		t.Fatalf("recovered sweep run = %+v", got)
	}
}

// TestIdempotencyKeyReplay: a repeated Idempotency-Key (per tenant)
// answers with the original run instead of starting a new one; another
// tenant's identical key is a fresh run.
func TestIdempotencyKeyReplay(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"size":20,"intervals":3}`
	post := func(tenant, key string, wait bool) (*http.Response, runView) {
		t.Helper()
		url := ts.URL + "/v1/runs"
		if wait {
			url += "?wait=1"
		}
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
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

	resp1, run1 := post("acme", "key-1", true)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first submit: status=%d replayed=%q", resp1.StatusCode, resp1.Header.Get("Idempotency-Replayed"))
	}
	resp2, run2 := post("acme", "key-1", false)
	if run2.ID != run1.ID {
		t.Fatalf("replay started a new run: %q vs %q", run2.ID, run1.ID)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("replay response missing Idempotency-Replayed header")
	}
	// The original finished, so the replay carries the final result.
	if resp2.StatusCode != http.StatusOK || run2.Status != StatusDone || run2.Result == nil {
		t.Fatalf("replay = %d %+v", resp2.StatusCode, run2)
	}
	// Same key, different tenant: a separate run.
	_, run3 := post("globex", "key-1", true)
	if run3.ID == run1.ID {
		t.Fatal("idempotency keys leaked across tenants")
	}
}

// TestTenantQuota: a tenant at its active-run quota gets 429; other
// tenants are unaffected; a finished run frees the slot.
func TestTenantQuota(t *testing.T) {
	s := NewWith(engine.NewPool(2), Options{TenantQuota: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Wait(); ts.Close() })

	post := func(tenant, body string, wait bool) *http.Response {
		t.Helper()
		url := ts.URL + "/v1/runs"
		if wait {
			url += "?wait=1"
		}
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// A long run occupies acme's only slot.
	_, slow := postRunTenant(t, ts, "acme", `{"size":300,"intervals":10000}`, false)
	if resp := post("acme", `{"size":20,"intervals":2}`, false); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit status = %d, want 429", resp.StatusCode)
	}
	if resp := post("globex", `{"size":20,"intervals":2}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d, want 200", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+slow.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	s.Wait()
	if resp := post("acme", `{"size":20,"intervals":2}`, true); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel submit status = %d, want 200", resp.StatusCode)
	}
}

func postRunTenant(t *testing.T, ts *httptest.Server, tenant, body string, wait bool) (*http.Response, runView) {
	t.Helper()
	url := ts.URL + "/v1/runs"
	if wait {
		url += "?wait=1"
	}
	req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
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

// TestCancelledIntervalsServedFromStore pins the tail-buffer leak fix:
// a cancelled run's live buffers are released at terminal status, and a
// later /intervals read streams the recorded lines from the store,
// still ending with the documented {"status":...} line.
func TestCancelledIntervalsServedFromStore(t *testing.T) {
	s, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":300,"intervals":10000}`, false)

	// Let at least one interval land, then cancel and drain.
	waitUntil(t, "an interval in the store", func() bool {
		lines, err := s.store.Intervals(run.ID, 0)
		return err == nil && len(lines) > 0
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+run.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	s.Wait()

	// The live buffers are gone (the leak fix)...
	snap := s.snapshot(run.ID)
	if snap.Status != StatusCancelled {
		t.Fatalf("run status = %q", snap.Status)
	}
	snap.tail.mu.Lock()
	released := snap.tail.released
	snap.tail.mu.Unlock()
	if !released {
		t.Fatal("cancelled run's tail buffers were not released")
	}

	// ...but the stream still serves, from the store, byte for byte,
	// with the terminal status line last.
	lines, err := s.store.Intervals(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	errJSON, err := json.Marshal(snap.Error)
	if err != nil {
		t.Fatal(err)
	}
	want := ndjson(lines) + `{"error":` + string(errJSON) + `,"status":"cancelled"}` + "\n"
	if got := readAll(t, ts.URL+"/v1/runs/"+run.ID+"/intervals"); got != want {
		t.Fatalf("post-cancel stream = %.300q…\nwant the %d stored lines then the status line", got, len(lines))
	}

	// The store eventually bounds cancelled-run streams too (the memory
	// store's retention window); here we only pin that nothing pins the
	// tail buffer itself.
}

// TestTraceServedFromStoreAfterFinish pins the trace-tail leak fix: a
// finished traced run's events stream from the store after the live
// buffers are released.
func TestTraceServedFromStoreAfterFinish(t *testing.T) {
	s, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":40,"intervals":4,"trace":true}`, true)
	if run.Status != StatusDone {
		t.Fatalf("run = %+v", run)
	}
	snap := s.snapshot(run.ID)
	snap.traceTail.mu.Lock()
	released := snap.traceTail.released
	snap.traceTail.mu.Unlock()
	if !released {
		t.Fatal("finished run's trace buffers were not released")
	}
	// The stream is the store's lines byte for byte, with no status line.
	lines, err := s.store.Trace(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("finished run left no trace events in the store")
	}
	if got := readAll(t, ts.URL+"/v1/runs/"+run.ID+"/trace"); got != ndjson(lines) {
		t.Fatalf("streamed %d bytes, want the store's %d lines (%d bytes)", len(got), len(lines), len(ndjson(lines)))
	}
}

// readAll GETs url and returns the whole body, failing the test on any
// error.
func readAll(t *testing.T, url string) string {
	t.Helper()
	body, err := fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fetch GETs url and returns the whole body of a 200 answer. The client
// deadline turns a stream that never ends into an error instead of a
// hang.
func fetch(url string) (string, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw), nil
}

// ndjson joins lines the way the streams send them: each line, then
// "\n".
func ndjson(lines [][]byte) string {
	var b strings.Builder
	for _, ln := range lines {
		b.Write(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

// waitUntil polls cond until it holds, failing the test after 30s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestRivalLeasedRunStreams is the regression for streams of a run
// another replica is executing: such a run is registered read-only, and
// its /intervals and /trace used to block until the client hung up,
// because nothing fed or released its tail. Now both serve what the
// shared store holds; /intervals closes with the run's status line.
func TestRivalLeasedRunStreams(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, d1 := diskServer(t, dir, 1, Options{Owner: "node-a"})
	_, run := postRun(t, ts1, `{"size":300,"intervals":10000,"trace":true}`, false)
	waitUntil(t, "an interval in the store", func() bool {
		lines, err := d1.Intervals(run.ID, 0)
		return err == nil && len(lines) > 0
	})

	// node-b opens the same directory while node-a holds the lease.
	s2, ts2, d2 := diskServer(t, dir, 1, Options{Owner: "node-b"})
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if snap := s2.snapshot(run.ID); snap == nil || snap.Status != StatusRunning {
		t.Fatalf("rival-leased run on node-b = %+v", snap)
	}
	intervals := readAll(t, ts2.URL+"/v1/runs/"+run.ID+"/intervals")
	events := readAll(t, ts2.URL+"/v1/runs/"+run.ID+"/trace")

	req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/runs/"+run.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	s1.Wait()

	// The streams are prefixes, in whole lines, of what node-a appended
	// before it stopped; the interval stream ends with the status line.
	status := `{"error":"","status":"running"}` + "\n"
	stored, err := d2.Intervals(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutSuffix(intervals, status)
	if !ok || body == "" || !strings.HasPrefix(ndjson(stored), body) || !strings.HasSuffix(body, "\n") {
		t.Fatalf("rival /intervals = %.200q…, want stored lines then %q", intervals, status)
	}
	trace, err := d2.Trace(run.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events == "" || !strings.HasPrefix(ndjson(trace), events) || !strings.HasSuffix(events, "\n") {
		t.Fatalf("rival /trace = %.200q…, want a prefix of the stored lines", events)
	}
}

// TestStreamByteContract pins the stream wire format on both stores:
// a sweep cell's interval stream is json.Marshal of each recorded stat
// plus "\n", and its trace stream is the store's lines with no status
// line, for a reader attached before the run started, one attached
// after it was done, and a resumed run's checkpointed cell.
func TestStreamByteContract(t *testing.T) {
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
			body := `{"sizes":[40,300],"intervals":300,"trace":true}`

			// Before start and after done: the pool's only slot is held,
			// so the readers attach while the run cannot start.
			pool := engine.NewPool(1)
			s := NewWith(pool, Options{Store: st, Owner: "node-a"})
			attached := make(chan struct{}, 2)
			h := s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				select {
				case attached <- struct{}{}:
				default:
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { s.Wait(); ts.Close() })
			release := holdPool(t, pool)
			_, run := postRun(t, ts, body, false)
			<-attached // the submission
			live := make([]string, 2)
			var read sync.WaitGroup
			for i, stream := range []string{"intervals", "trace"} {
				read.Add(1)
				go func() {
					defer read.Done()
					var err error
					if live[i], err = fetch(ts.URL + "/v1/runs/" + run.ID + "/" + stream + "?cell=1"); err != nil {
						t.Error(err)
					}
				}()
			}
			<-attached
			<-attached
			release()
			read.Wait()
			s.Wait()
			snap := s.snapshot(run.ID)
			if snap.Status != StatusDone {
				t.Fatalf("run = %+v", snap)
			}
			checkCell(t, st, ts.URL, snap, 1, live)

			// A resumed run's checkpointed cell: interrupt after the first
			// checkpoint, then restart over the same store.
			_, run = postRun(t, ts, body, false)
			waitUntil(t, "a cell checkpoint", func() bool {
				cells, err := st.Cells(run.ID)
				return err == nil && len(cells) > 0
			})
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+run.ID, nil)
			del, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			del.Body.Close()
			s.Wait()
			cells, err := st.Cells(run.ID)
			if err != nil || len(cells) != 1 {
				t.Fatalf("interruption checkpointed %v (err %v); the test needs exactly one", cells, err)
			}
			rec, _, err := st.GetRun(run.ID)
			if err != nil {
				t.Fatal(err)
			}
			rec.Status, rec.Error, rec.Finished = StatusRunning, "", nil
			if err := st.PutRun(rec); err != nil {
				t.Fatal(err)
			}

			pool2 := engine.NewPool(1)
			s2 := NewWith(pool2, Options{Store: st, Owner: "node-a"})
			ts2 := httptest.NewServer(s2.Handler())
			t.Cleanup(func() { s2.Wait(); ts2.Close() })
			release = holdPool(t, pool2)
			if err := s2.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			// The responses start while the resumed run waits for the pool,
			// so their first lines come from the seeded tail.
			ck := cells[0].Cell
			client := &http.Client{Timeout: 10 * time.Second}
			var resps []*http.Response
			for _, stream := range []string{"intervals", "trace"} {
				resp, err := client.Get(fmt.Sprintf("%s/v1/runs/%s/%s?cell=%d", ts2.URL, run.ID, stream, ck))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				resps = append(resps, resp)
			}
			release()
			resumed := make([]string, len(resps))
			for i, resp := range resps {
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				resumed[i] = string(raw)
			}
			s2.Wait()
			snap = s2.snapshot(run.ID)
			if snap.Status != StatusDone {
				t.Fatalf("resumed run = %+v", snap)
			}
			checkCell(t, st, ts2.URL, snap, ck, resumed)
		})
	}
}

// holdPool occupies the pool's only slot until the returned release is
// called (by the test, or else by cleanup); release returns once the
// slot is free.
func holdPool(t *testing.T, pool *engine.Pool) (release func()) {
	t.Helper()
	held, done, exited := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		pool.Map(context.Background(), 1, func(int) error {
			close(held)
			<-done
			return nil
		})
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(done); <-exited }) }
	t.Cleanup(release)
	return release
}

// checkCell asserts the interval and trace streams got (in that order)
// match the contract for one cell of a done run, then that fresh reads
// after the run finished match it too. The interval lines are held to
// the stats the engine computes afresh for the cell's scenario, and the
// run's answer must carry those same stats.
func checkCell(t *testing.T, st store.RunStore, url string, snap *Run, cell int, got []string) {
	t.Helper()
	ex, err := engine.SweepSpec{Scenario: snap.expanded.Cells()[cell]}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := engine.NewPool(1).RunExpandedHooked(context.Background(), ex, engine.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	stats := fresh.Cells[0].Cluster.Stats
	if answered := viewOf(t, snap).Sweep.Cells[cell].Cluster.Stats; !reflect.DeepEqual(answered, stats) {
		t.Errorf("cell %d: the run's answer holds %d stats that differ from the engine's %d", cell, len(answered), len(stats))
	}
	var want strings.Builder
	for _, stat := range stats {
		raw, err := json.Marshal(stat)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(raw)
		want.WriteByte('\n')
	}
	trace, err := st.Trace(snap.ID, cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("the store holds no trace lines")
	}
	wants := []string{want.String(), ndjson(trace)}
	for i, stream := range []string{"intervals", "trace"} {
		after := readAll(t, fmt.Sprintf("%s/v1/runs/%s/%s?cell=%d", url, snap.ID, stream, cell))
		for _, tc := range []struct{ when, got string }{{"live", got[i]}, {"after done", after}} {
			if tc.got != wants[i] {
				t.Errorf("cell %d /%s read %s: %d bytes differ from the %d-byte contract", cell, stream, tc.when, len(tc.got), len(wants[i]))
			}
		}
	}
}

// BenchmarkRecover times a boot over a disk store of n done 2-cell
// sweeps of serve-read's shape (100 servers, 40 intervals): OpenDisk,
// NewWith and Recover, as the service starts on a store it wrote. The
// records are written once per benchmark, from one simulated sweep,
// so only the boot is timed.
func BenchmarkRecover(b *testing.B) {
	spec := engine.SweepSpec{
		Scenario: engine.Scenario{Kind: engine.KindCluster, Size: 100, Band: "low", Intervals: 40},
		Seeds:    []uint64{11, 12},
	}
	ex, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	sw, err := engine.NewPool(1).RunSweep(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	specJSON, err := json.Marshal(ex.Spec())
	if err != nil {
		b.Fatal(err)
	}
	result, err := json.Marshal(sw)
	if err != nil {
		b.Fatal(err)
	}
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, n := range []int{20, 200} {
		b.Run(fmt.Sprintf("runs=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			d, err := store.OpenDisk(dir)
			if err != nil {
				b.Fatal(err)
			}
			for range n {
				id, seq, err := d.NewID()
				if err != nil {
					b.Fatal(err)
				}
				rec := store.Record{ID: id, Seq: seq, Status: StatusDone, Spec: specJSON, Result: result,
					Created: created, Started: &created, Finished: &created}
				if err := d.PutRun(rec); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				d, err := store.OpenDisk(dir)
				if err != nil {
					b.Fatal(err)
				}
				s := NewWith(engine.NewPool(1), Options{Store: d})
				if err := s.Recover(context.Background()); err != nil {
					b.Fatal(err)
				}
				if got := len(s.order); got != n {
					b.Fatalf("recovered %d runs, want %d", got, n)
				}
				if err := d.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
