// Package serve exposes the simulation engine as an HTTP scenario
// service — the `ealb-serve` daemon. Clients submit scenario specs as
// JSON and the service executes them on a shared engine pool:
//
//	POST   /v1/runs                 submit a scenario or sweep (?wait=1 blocks).
//	                                An Idempotency-Key header dedups retries:
//	                                a repeated key (per X-Tenant) answers with
//	                                the original run and Idempotency-Replayed:
//	                                true instead of starting a new one. With a
//	                                per-tenant quota configured, a tenant at
//	                                its active-run (queued+running) limit gets
//	                                429 Too Many Requests.
//	GET    /v1/runs                 list runs, newest last. ?status= keeps
//	                                one status (see Statuses); ?limit=N
//	                                keeps only the N most recent. N must be
//	                                a positive integer — limit=0 is a 400,
//	                                not "no limit": an unbounded list is
//	                                spelled by omitting the parameter.
//	GET    /v1/runs/{id}            one run with its result summary
//	GET    /v1/runs/{id}/intervals  stream per-interval stats as NDJSON;
//	                                tails a running simulation live (?cell=
//	                                selects a sweep cell, default 0)
//	GET    /v1/runs/{id}/trace      stream decision events as NDJSON for a
//	                                run submitted with "trace":true (?cell=
//	                                selects a sweep cell, default 0)
//	DELETE /v1/runs/{id}            cancel a queued or running run
//	GET    /metrics                 Prometheus text-format engine/service
//	                                counters and latency histograms
//	GET    /healthz                 liveness probe
//
// A request body is an engine.SweepSpec: the v1 single-run scalar form
// still round-trips unchanged, and any sweep axis may be a list
// (`{"sizes":[100,1000],"seeds":[1,2,3]}` runs six cells and returns
// per-cell results plus aggregates). Every run executes under its own
// context.Context: DELETE cancels it, a ?wait=1 client disconnect
// cancels it, and Shutdown drains or cancels all of them.
//
// Each interval stat and decision event is encoded to JSON once, by the
// engine's Observe hook or the cell's tracer; the same line goes to the
// run store and to the run's in-memory tail, which live readers copy
// straight to the response. A finished cell's checkpoint splices its
// interval lines into the encoded engine.Result, and the run's record
// splices the checkpoints into the SweepResult, so no interval is
// encoded twice. A done run keeps only those record bytes: GET wraps
// them in the run's envelope, and its interval streams slice the lines
// back out of them. At terminal status the tail is released and readers
// finish from the recorded result or the store. Runs a rival replica
// holds stream what the shared store holds.
//
// The run list walks a submission-ordered index back from the newest
// run, so a limited list reads only the runs it answers with. Each run
// encodes the scenario or spec it presents once, at submission or
// recovery, and every list entry and GET body splices those bytes in.
//
// The service holds live runs in memory and writes every state
// transition through a store.RunStore. The default in-memory store
// keeps the historical single-process behaviour; `ealb-serve
// -store-dir` selects the durable disk store, which survives restarts:
// on startup Recover reloads finished history and resumes interrupted
// runs from their per-cell checkpoints — determinism makes the resumed
// result byte-identical to an uninterrupted one. Every run records the
// normalized spec it executed, so a result can always be reproduced
// bit-for-bit from its recorded spec and seed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"ealb/internal/engine"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// Run statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Statuses lists every run status the service reports.
func Statuses() []string {
	return []string{StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled}
}

// Run is one submitted request and, once finished, its result. A
// single-scenario request (the v1 body) reports its scenario under
// "scenario" and its engine.Result under "result"; a sweep request
// reports its spec under "spec" and its engine.SweepResult under
// "sweep" (see appendJSON).
type Run struct {
	ID     string
	Status string
	Error  string

	Created  time.Time
	Started  *time.Time
	Finished *time.Time

	// result is a done run's recorded result: the compact JSON of its
	// engine.Result (single) or engine.SweepResult, the very slice of
	// the record it stored or Recover read back; nil otherwise.
	result []byte
	// statsAt holds the offset in result of each cell's Stats array for
	// a done cluster or farm run, where its interval streams walk from.
	statsAt []int
	// specJSON is the normalized spec the run executes, encoded once:
	// the record's Spec.
	specJSON []byte
	// presented is the compact JSON of the value the run's answers show
	// under "scenario" (a single run's one cell) or "spec" (a sweep's
	// normalized spec), encoded once. A sweep's shares specJSON's bytes.
	presented []byte

	// seq orders the run list by submission; the zero-padded ID would
	// sort lexicographically wrong past run-999999. It is the store's
	// sequence number, so ordering spans restarts.
	seq int64
	// tenant and idemKey echo the submission's X-Tenant and
	// Idempotency-Key headers (quota accounting and replay dedup).
	tenant, idemKey string
	// expanded is the validated, expanded sweep the run executes (also
	// set for single-scenario runs, whose public Spec field stays
	// empty).
	expanded engine.ExpandedSweep
	// single marks a v1 single-scenario presentation.
	single bool
	// resume holds checkpointed cell results recovered from the store;
	// execute skips these cells (nil for fresh runs).
	resume map[int]engine.Result
	// cancel aborts the run's context (DELETE, Shutdown).
	cancel context.CancelFunc
	// tail buffers the per-interval NDJSON lines of cluster and farm
	// cells for live streaming; nil for policy runs. Released at every
	// terminal status: done runs serve intervals from the recorded
	// result, failed/cancelled ones from the store.
	tail *tail
	// traceTail buffers decision-event lines for runs submitted with
	// "trace":true; nil otherwise. Also released at terminal status —
	// events persist in the store (bounded by maxTraceEventsPerCell and
	// the memory store's retention window), so finished runs stay
	// streamable without pinning every event in RAM.
	traceTail *tail
}

// A run's JSON answer is spliced from bytes the run holds: the head
// (id, status, and the presented scenario or spec), a done run's
// recorded result, and the tail (error, created, started, finished).
// Keys, their order, omitempty and escaping are what json.Marshal gives
// the typed view of the same fields; FuzzRunJSON pins the two byte for
// byte.

// appendJSON appends the run's compact JSON answer: the head, the
// recorded result verbatim under "result" (single) or "sweep", then the
// tail.
func (run *Run) appendJSON(dst []byte) ([]byte, error) {
	dst = appendHead(dst, run.ID, run.Status, run.single, run.presented)
	if run.result != nil {
		key := `,"sweep":`
		if run.single {
			key = `,"result":`
		}
		dst = append(append(dst, key...), run.result...)
	}
	return appendTail(dst, run.Error, run.Created, run.Started, run.Finished)
}

// listEntry is what a list entry shows of a run, copied under s.mu.
type listEntry struct {
	id, status, errMsg string
	created            time.Time
	presented          []byte
	single             bool
}

// entryOf copies the fields of run a list entry shows. Caller holds
// s.mu (or owns run).
func entryOf(run *Run) listEntry {
	return listEntry{id: run.ID, status: run.Status, errMsg: run.Error,
		created: run.Created, presented: run.presented, single: run.single}
}

// appendJSON appends the entry's compact JSON: the head, then error and
// created.
func (e *listEntry) appendJSON(dst []byte) ([]byte, error) {
	return appendTail(appendHead(dst, e.id, e.status, e.single, e.presented), e.errMsg, e.created, nil, nil)
}

// appendHead opens a run's JSON object with its id, its status and,
// under "scenario" (single) or "spec", its presented bytes.
func appendHead(dst []byte, id, status string, single bool, presented []byte) []byte {
	dst = appendString(append(dst, `{"id":`...), id)
	dst = appendString(append(dst, `,"status":`...), status)
	if presented != nil {
		key := `,"spec":`
		if single {
			key = `,"scenario":`
		}
		dst = append(append(dst, key...), presented...)
	}
	return dst
}

// appendTail closes a run's JSON object with its error when set, its
// created time, and its started and finished times when set.
func appendTail(dst []byte, errMsg string, created time.Time, started, finished *time.Time) ([]byte, error) {
	if errMsg != "" {
		dst = appendString(append(dst, `,"error":`...), errMsg)
	}
	dst, ok := appendTime(append(dst, `,"created":`...), created)
	if ok && started != nil {
		dst, ok = appendTime(append(dst, `,"started":`...), *started)
	}
	if ok && finished != nil {
		dst, ok = appendTime(append(dst, `,"finished":`...), *finished)
	}
	if !ok {
		// Fail as json.Marshal fails on the same fields.
		_, err := json.Marshal(struct {
			C    time.Time
			S, F *time.Time
		}{created, started, finished})
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendString appends s as json.Marshal encodes it. Run IDs and
// statuses hold only bytes that encode as themselves; any other string
// takes json.Marshal's path.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always encodes
			return append(dst, raw...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendTime appends t as json.Marshal encodes a time.Time; ok is false
// for a time RFC 3339 cannot represent.
func appendTime(dst []byte, t time.Time) (_ []byte, ok bool) {
	dst, err := t.AppendText(append(dst, '"'))
	return append(dst, '"'), err == nil
}

// Server is the HTTP scenario service.
type Server struct {
	pool   *engine.Pool
	logger *slog.Logger // nil disables logging (SetLogger)

	// phases aggregates per-interval simulation phase timings across
	// every traced run; traceDropped counts decision events dropped past
	// the per-cell buffer cap. Both are exported on /metrics.
	phases       [trace.NumPhases]trace.Hist
	traceDropped atomic.Uint64

	// httpMu guards the per-route HTTP metrics map (observe.go).
	httpMu sync.Mutex
	//ealb:guarded-by(httpMu)
	routes map[string]*routeMetrics

	// store persists run records, interval/trace streams and cell
	// checkpoints; owner/leaseTTL are the service's claim identity for
	// shared stores; tenantQuota bounds active runs per tenant (0 = no
	// limit). All fixed at construction.
	store       store.RunStore
	owner       string
	leaseTTL    time.Duration
	tenantQuota int

	mu sync.Mutex
	// runs finds a run by ID; order holds the same runs ascending by
	// seq, so a list walks only the runs it answers with (addLocked keeps
	// the two in step).
	//ealb:guarded-by(mu)
	runs map[string]*Run
	//ealb:guarded-by(mu)
	order []*Run
	//ealb:guarded-by(mu)
	draining bool
	// idem maps tenant-scoped idempotency keys to run IDs for replay
	// dedup; rebuilt from the store by Recover.
	//ealb:guarded-by(mu)
	idem map[string]string
	// wg counts every in-flight run — synchronous and asynchronous —
	// and is incremented in newRun under mu, so Shutdown's draining
	// flag and the drain wait cannot race a submission.
	wg sync.WaitGroup
}

// Options configures NewWith. The zero value reproduces New: an
// in-memory store, no tenant quota, and the default lease TTL.
type Options struct {
	// Store persists runs; nil selects a fresh in-memory store. The
	// caller owns a store it passes in (including Close).
	Store store.RunStore
	// Owner is this process's claim identity on a shared store. A
	// replica restarted under the same owner reclaims its interrupted
	// runs immediately; rivals must wait out the lease TTL. Defaults to
	// "ealb-serve".
	Owner string
	// LeaseTTL is how long a run claim lasts between renewals (renewed
	// on every cell checkpoint). Defaults to 30s.
	LeaseTTL time.Duration
	// TenantQuota caps a tenant's active (queued+running) runs;
	// submissions past it answer 429. 0 means unlimited.
	TenantQuota int
}

// NewWith builds a service executing scenarios on the given pool with
// the given run store and submission limits; a nil Store keeps runs in
// memory. Call Recover before serving to reload a durable store's
// history and resume its interrupted runs.
func NewWith(pool *engine.Pool, opts Options) *Server {
	if opts.Store == nil {
		opts.Store = store.NewMemory()
	}
	if opts.Owner == "" {
		opts.Owner = "ealb-serve"
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	return &Server{
		pool:        pool,
		store:       opts.Store,
		owner:       opts.Owner,
		leaseTTL:    opts.LeaseTTL,
		tenantQuota: opts.TenantQuota,
		runs:        make(map[string]*Run),
		idem:        make(map[string]string),
	}
}

// Handler returns the service's routed HTTP handler, wrapped in the
// per-route metrics (and, with a logger installed, request-logging)
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/intervals", s.handleIntervals)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s.instrument(mux)
}

// Wait blocks until every in-flight run has finished.
func (s *Server) Wait() { s.wg.Wait() }

// Shutdown drains the service for process exit: new submissions are
// rejected with 503, and Shutdown blocks until every in-flight run has
// finished. When ctx expires first, every remaining run is cancelled and
// Shutdown waits for the cancellations to land, then returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, run := range s.order {
		if run.cancel != nil {
			run.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// handleSubmit accepts a scenario or sweep spec, validates it and
// executes it on the engine — asynchronously by default, synchronously
// with ?wait=1. A failed (or cancelled) synchronous run answers 422 with
// the recorded error; only a completed one answers 200.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec engine.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid scenario JSON: %v", err))
		return
	}
	// The body is one spec: a second value, or any bytes but trailing
	// whitespace, is rejected rather than silently dropped.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		httpError(w, http.StatusBadRequest, "invalid scenario JSON: data after the spec")
		return
	}
	ex, err := spec.Expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	wait, _ := strconv.ParseBool(r.URL.Query().Get("wait"))
	base := context.Background()
	if wait {
		// The client's disconnect cancels a synchronous run; DELETE from
		// another connection can too.
		base = r.Context()
	}
	ctx, cancel := context.WithCancel(base)
	run, replayed, err := s.newRun(ex, spec.SingleRun(), cancel, r.Header.Get("X-Tenant"), r.Header.Get("Idempotency-Key"))
	switch {
	case errors.Is(err, errDraining):
		cancel()
		httpError(w, http.StatusServiceUnavailable, "service is draining")
		return
	case errors.Is(err, errQuota):
		cancel()
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("tenant has %d active runs (the configured quota); retry when one finishes", s.tenantQuota))
		return
	case err != nil:
		cancel()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if replayed {
		// Idempotent retry: answer with the original run, no new work.
		cancel()
		w.Header().Set("Idempotency-Replayed", "true")
		snap := s.snapshot(run.ID)
		code := http.StatusAccepted
		if terminal(snap.Status) {
			code = http.StatusOK
		}
		writeRun(w, code, snap)
		return
	}
	if s.logger != nil {
		s.logger.Info("run submitted", "run", run.ID, "kind", ex.Spec().Kind,
			"cells", len(ex.Cells()), "wait", wait, "remote", r.RemoteAddr)
	}
	if wait {
		func() {
			defer s.wg.Done()
			defer cancel()
			s.execute(ctx, run)
		}()
		snap := s.snapshot(run.ID)
		code := http.StatusOK
		if snap.Status != StatusDone {
			code = http.StatusUnprocessableEntity
		}
		writeRun(w, code, snap)
		return
	}
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.execute(ctx, run)
	}()
	writeRun(w, http.StatusAccepted, s.snapshot(run.ID))
}

// Submission failures newRun distinguishes for HTTP mapping.
var (
	errDraining = errors.New("serve: draining")
	errQuota    = errors.New("serve: tenant quota exceeded")
)

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// idemIndex scopes an idempotency key to its tenant.
func idemIndex(tenant, key string) string { return tenant + "\x00" + key }

// newRun registers a queued run under a store-unique id and adds it to
// the drain group. When the tenant already submitted this idempotency
// key, the original run returns with replayed=true and nothing new
// starts. On a fresh (non-replayed) success the caller owes one
// s.wg.Done once the run finishes.
func (s *Server) newRun(ex engine.ExpandedSweep, single bool, cancel context.CancelFunc, tenant, idemKey string) (*Run, bool, error) {
	spec := ex.Spec()
	specJSON, err := json.Marshal(spec)
	presented := specJSON
	if err == nil && single {
		presented, err = json.Marshal(ex.Cells()[0])
	}
	if err != nil {
		return nil, false, fmt.Errorf("encode spec: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	if idemKey != "" {
		if id, ok := s.idem[idemIndex(tenant, idemKey)]; ok {
			return s.runs[id], true, nil
		}
	}
	if s.tenantQuota > 0 {
		active := 0
		for _, run := range s.order {
			if run.tenant == tenant && !terminal(run.Status) {
				active++
			}
		}
		if active >= s.tenantQuota {
			return nil, false, errQuota
		}
	}
	// The store reserves the ID: unique across restarts (the disk store
	// scans its directory and reserves with an atomic mkdir), so a
	// restarted process can never mint an ID that collides with
	// persisted history.
	id, seq, err := s.store.NewID()
	if err != nil {
		return nil, false, fmt.Errorf("run store: %w", err)
	}
	s.wg.Add(1)
	run := &Run{
		ID:        id,
		Status:    StatusQueued,
		Created:   time.Now().UTC(), //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
		seq:       seq,
		tenant:    tenant,
		idemKey:   idemKey,
		specJSON:  specJSON,
		presented: presented,
		expanded:  ex,
		single:    single,
		cancel:    cancel,
	}
	if spec.Kind == engine.KindCluster || spec.Kind == engine.KindFarm {
		run.tail = newTail(len(ex.Cells()))
		// Every cell of a sweep shares the spec's trace flag.
		if ex.Cells()[0].Trace {
			run.traceTail = newTail(len(ex.Cells()))
		}
	}
	s.addLocked(run)
	if idemKey != "" {
		s.idem[idemIndex(tenant, idemKey)] = run.ID
	}
	// Write-through: claim and persist the queued run so a crash from
	// here on leaves a resumable record. Store errors past the ID
	// reservation degrade durability, not the run; they are logged, not
	// fatal.
	if _, err := s.store.Claim(run.ID, s.owner, s.leaseTTL); err != nil {
		s.logStoreError("claim", run.ID, err)
	}
	if err := s.store.PutRun(s.recordLocked(run)); err != nil {
		s.logStoreError("put", run.ID, err)
	}
	return run, false, nil
}

// addLocked enters run in the ID map and in the submission index after
// every run of a lower or equal seq: an append for a newly submitted run,
// whose store-issued seq is the highest yet. A run already held under the
// same ID is replaced in both. Caller holds s.mu.
//
//ealb:locked(mu)
func (s *Server) addLocked(run *Run) {
	if old, ok := s.runs[run.ID]; ok {
		s.order = slices.DeleteFunc(s.order, func(r *Run) bool { return r == old })
	}
	s.runs[run.ID] = run
	i := sort.Search(len(s.order), func(i int) bool { return s.order[i].seq > run.seq })
	s.order = slices.Insert(s.order, i, run)
}

// recordLocked builds the durable form of a run. Caller holds s.mu.
//
//ealb:locked(mu)
func (s *Server) recordLocked(run *Run) store.Record {
	rec := store.Record{
		ID:       run.ID,
		Seq:      run.seq,
		Status:   run.Status,
		Single:   run.single,
		Tenant:   run.tenant,
		IdemKey:  run.idemKey,
		Error:    run.Error,
		Created:  run.Created,
		Started:  run.Started,
		Finished: run.Finished,
		Spec:     run.specJSON,
		Result:   run.result,
	}
	return rec
}

// logStoreError reports a non-fatal store write failure.
func (s *Server) logStoreError(op, id string, err error) {
	if s.logger != nil {
		s.logger.Error("run store write failed", "op", op, "run", id, "error", err)
	}
}

// execute runs the spec — skipping cells already checkpointed when
// resuming — and records the outcome, writing every transition through
// the store.
func (s *Server) execute(ctx context.Context, run *Run) {
	now := time.Now().UTC() //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
	s.mu.Lock()
	run.Status = StatusRunning
	run.Started = &now
	if err := s.store.PutRun(s.recordLocked(run)); err != nil {
		s.logStoreError("put", run.ID, err)
	}
	s.mu.Unlock()

	if s.logger != nil {
		s.logger.Info("run started", "run", run.ID, "resumedCells", len(run.resume))
	}

	hooks := engine.RunHooks{Completed: run.resume}
	// cells holds each finished cell's checkpoint bytes, the pieces of
	// the run's recorded result. A resumed cell's decoded checkpoint is
	// re-encoded, so the record is canonical whatever the store held.
	cells := make([][]byte, len(run.expanded.Cells()))
	//ealb:allow-nondet per-cell encoding into indexed slots; order-insensitive
	for cell, res := range run.resume {
		cells[cell], _ = json.Marshal(res) // decoded from JSON, so it encodes
	}
	if run.tail != nil {
		hooks.Observe = func(cell int, st any) {
			// The one encoding of an interval: the tail and the store hold
			// these bytes, and the cell's checkpoint splices them in.
			raw, err := json.Marshal(st)
			if err != nil {
				return
			}
			run.tail.append(cell, raw)
			if err := s.store.AppendInterval(run.ID, cell, raw); err != nil {
				s.logStoreError("interval", run.ID, err)
			}
		}
	}
	if run.traceTail != nil {
		hooks.TracerFor = func(cell int) trace.Tracer {
			return &tailTracer{srv: s, tail: run.traceTail, runID: run.ID, cell: cell}
		}
	}
	// Checkpoint each finished cell and renew the lease: a crash after
	// this point re-runs only the cells that had not checkpointed, and
	// determinism makes the merged resume byte-identical.
	hooks.CellDone = func(cell int, res engine.Result) {
		var lines [][]byte
		if run.tail != nil {
			lines, _, _ = run.tail.after(cell, 0)
		}
		raw, err := cellJSON(res, lines)
		if err != nil {
			s.logStoreError("encode cell", run.ID, err)
			return
		}
		cells[cell] = raw
		if err := s.store.PutCell(run.ID, store.CellResult{Cell: cell, Result: raw}); err != nil {
			s.logStoreError("cell", run.ID, err)
		}
		if _, err := s.store.Claim(run.ID, s.owner, s.leaseTTL); err != nil {
			s.logStoreError("claim", run.ID, err)
		}
	}
	res, err := s.pool.RunExpandedHooked(ctx, run.expanded, hooks)

	end := time.Now().UTC() //ealb:allow-nondet wall-clock run timestamp; lifecycle metadata, not simulation state
	s.mu.Lock()
	run.Finished = &end
	switch {
	case err == nil:
		// A result that does not assemble fails the run, so its interval
		// streams and checkpoints stay in the store below.
		if run.result, run.statsAt, err = resultJSON(run, cells, res.Aggregates); err != nil {
			s.logStoreError("encode result", run.ID, err)
			run.Status = StatusFailed
			run.Error = "encode result: " + err.Error()
		} else {
			run.Status = StatusDone
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		run.Status = StatusCancelled
		run.Error = err.Error()
	default:
		run.Status = StatusFailed
		run.Error = err.Error()
	}
	rec := s.recordLocked(run)
	s.mu.Unlock()

	// Persist the terminal record before releasing the live buffers, so
	// a reader that observes a released tail finds the outcome — then
	// drop what the record supersedes. A done run's intervals and cell
	// checkpoints live inside its recorded result; failed/cancelled runs
	// keep their interval streams in the store (that is where their
	// tails now stream from).
	if perr := s.store.PutRun(rec); perr != nil {
		s.logStoreError("put", run.ID, perr)
	}
	if err == nil {
		if derr := s.store.DropIntervals(run.ID); derr != nil {
			s.logStoreError("drop", run.ID, derr)
		}
		if derr := s.store.DropCells(run.ID); derr != nil {
			s.logStoreError("drop", run.ID, derr)
		}
	}
	if rerr := s.store.Release(run.ID, s.owner); rerr != nil {
		s.logStoreError("release", run.ID, rerr)
	}
	// Release both tails unconditionally: the process pins no finished
	// run's stream buffers. Readers fall through to the recorded result
	// or the store.
	if run.tail != nil {
		run.tail.release()
	}
	if run.traceTail != nil {
		run.traceTail.release()
	}
	if s.logger != nil {
		s.mu.Lock()
		status, errMsg := run.Status, run.Error
		s.mu.Unlock()
		if errMsg != "" {
			s.logger.Info("run finished", "run", run.ID, "status", status,
				"duration", end.Sub(now), "error", errMsg)
		} else {
			s.logger.Info("run finished", "run", run.ID, "status", status,
				"duration", end.Sub(now))
		}
	}
}

// snapshot copies a run under the lock so handlers can marshal it
// without racing execute.
func (s *Server) snapshot(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	run, ok := s.runs[id]
	if !ok {
		return nil
	}
	cp := *run
	return &cp
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	if status != "" {
		known := false
		for _, st := range Statuses() {
			if status == st {
				known = true
				break
			}
		}
		if !known {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown status %q (want one of %v)", status, Statuses()))
			return
		}
	}
	limit := -1
	if raw := q.Get("limit"); raw != "" {
		// limit=0 is rejected along with negatives and junk: it reads as
		// "no runs", which no client means, and treating it as "no limit"
		// would hide the typo. Omitting the parameter lists everything.
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q (want a positive integer)", raw))
			return
		}
		limit = n
	}

	// Walk the index from the newest run back until limit runs match,
	// copying only the fields an entry shows; the answer lists them
	// newest last.
	s.mu.Lock()
	n := len(s.order)
	if limit >= 0 {
		n = min(n, limit)
	}
	picked := make([]listEntry, 0, n)
	for i := len(s.order) - 1; i >= 0 && len(picked) != limit; i-- {
		if run := s.order[i]; status == "" || run.Status == status {
			picked = append(picked, entryOf(run))
		}
	}
	s.mu.Unlock()
	slices.Reverse(picked)

	body := append(make([]byte, 0, 16+len(picked)*256), `{"runs":[`...)
	var err error
	for i := range picked {
		if i > 0 {
			body = append(body, ',')
		}
		if body, err = picked[i].appendJSON(body); err != nil {
			break
		}
	}
	writeIndented(w, http.StatusOK, append(body, "]}"...), err)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run := s.snapshot(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	writeRun(w, http.StatusOK, run)
}

// handleCancel aborts a queued or running run. It returns promptly: the
// engine observes the cancellation at the next interval boundary and the
// run then lands in the cancelled status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	run, ok := s.runs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	switch run.Status {
	case StatusQueued, StatusRunning:
	default:
		status := run.Status
		s.mu.Unlock()
		httpError(w, http.StatusConflict, fmt.Sprintf("run is already %s", status))
		return
	}
	cancel := run.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeRun(w, http.StatusAccepted, s.snapshot(r.PathValue("id")))
}

// handleIntervals streams per-interval stats of one cluster or farm
// cell as NDJSON (see stream). Once the run is terminal a done run
// serves the remainder from its recorded result, whose Stats elements
// are the lines it streamed live; any other run — failed, cancelled,
// executing on a rival replica, or done with a recorded result that
// did not load — serves it from the store and closes with a
// {"error","status"} line, so a tail client sees why no more intervals
// will come.
func (s *Server) handleIntervals(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, func(run *Run) *tail { return run.tail },
		"run has no per-interval stats (not a cluster or farm scenario)",
		func(run *Run, cell, sent int) [][]byte {
			if run.Status == StatusDone && run.result != nil {
				lines, _ := elements(run.result, run.statsAt[cell])
				return skip(lines, sent)
			}
			// A store read error cannot be reported once lines may have
			// been sent: the stream closes with the status line alone.
			lines, _ := s.store.Intervals(run.ID, cell)
			status, _ := json.Marshal(map[string]string{"status": run.Status, "error": run.Error}) // strings always encode
			return append(skip(lines, sent), status)
		})
}

// stream serves one cell of a run's NDJSON stream, flushing after every
// batch. ?cell= selects a sweep cell by its expansion index (default 0).
// pick chooses the run's tail (nil answers 409 with none). The stream
// tails a queued or running run live: buffered lines go out at once and
// new ones follow as the simulation produces them. Once the tail is
// released, rest supplies the lines past the sent count from the run's
// durable form (recorded result or store), and the stream ends.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, pick func(*Run) *tail, none string,
	rest func(run *Run, cell, sent int) [][]byte) {
	run := s.snapshot(r.PathValue("id"))
	if run == nil {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	t := pick(run)
	if t == nil {
		httpError(w, http.StatusConflict, none)
		return
	}
	cell := 0
	if raw := r.URL.Query().Get("cell"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("invalid cell %q", raw))
			return
		}
		cell = n
	}
	if cell >= t.cellCount() {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no such cell %d (run has %d)", cell, t.cellCount()))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	write := func(lines [][]byte) bool {
		for _, ln := range lines {
			// Lines are shared with other readers and the store: write
			// the newline separately rather than appending to them.
			if _, err := w.Write(ln); err != nil {
				return false
			}
			if _, err := w.Write(newline); err != nil {
				return false
			}
		}
		if flusher != nil && len(lines) > 0 {
			flusher.Flush()
		}
		return true
	}
	sent := 0
	for {
		lines, released, wake := t.after(cell, sent)
		if released {
			write(rest(s.snapshot(run.ID), cell, sent))
			return
		}
		if !write(lines) {
			return
		}
		sent += len(lines)
		if len(lines) > 0 {
			continue // re-check before blocking: more may have arrived
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

var newline = []byte{'\n'}

// skip returns lines past the first n (nil when n covers them all).
func skip(lines [][]byte, n int) [][]byte {
	if n >= len(lines) {
		return nil
	}
	return lines[n:]
}

// tail buffers the NDJSON lines of a run's cells — the exact bytes
// handed to the store, encoded once — so clients can stream them while
// the simulation is still running. At terminal status the buffers are
// released: the same lines then live in the recorded result (done
// runs) or the store (failed and cancelled runs, and trace streams).
type tail struct {
	n int // cell count, stable after construction

	mu sync.Mutex
	//ealb:guarded-by(mu)
	cells [][][]byte
	//ealb:guarded-by(mu)
	released bool
	//ealb:guarded-by(mu)
	wake chan struct{} // closed and replaced on every append/release
}

func newTail(cells int) *tail {
	return &tail{n: cells, cells: make([][][]byte, cells), wake: make(chan struct{})}
}

// releasedTail builds a tail already released — runs this process does
// not execute, whose streams live in the store or the recorded result.
func releasedTail(cells int) *tail {
	t := newTail(cells)
	t.release()
	return t
}

func (t *tail) cellCount() int { return t.n }

// append adds lines to a cell's buffer and wakes blocked readers. It is
// called from engine worker goroutines, and by Recover to seed a resumed
// run's checkpointed cells with their stored lines. The lines are
// shared, never modified.
func (t *tail) append(cell int, lines ...[]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cell < 0 || cell >= len(t.cells) || t.released {
		return
	}
	t.cells[cell] = append(t.cells[cell], lines...)
	close(t.wake)
	t.wake = make(chan struct{})
}

// release drops the buffers and wakes blocked readers; the caller
// guarantees the run's durable form now holds every line.
func (t *tail) release() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.released = true
	t.cells = nil
	close(t.wake)
	t.wake = make(chan struct{})
}

// after returns the cell's lines past from, whether the buffers were
// released (the caller must then read the run's durable form), and a
// channel that is closed on the next append or release.
func (t *tail) after(cell, from int) (lines [][]byte, released bool, wake <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.released {
		return nil, true, t.wake
	}
	lines = t.cells[cell]
	return lines[min(from, len(lines)):], false, t.wake
}

// metricDef describes one exported metric.
type metricDef struct {
	name, help, kind string
	value            string
}

// handleMetrics writes the engine and service counters in the Prometheus
// text exposition format, including the # HELP and # TYPE comment lines
// real scrapers require.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.pool.Stats()
	s.mu.Lock()
	var queued, running, done, failed, cancelled int
	for _, run := range s.order {
		switch run.Status {
		case StatusQueued:
			queued++
		case StatusRunning:
			running++
		case StatusDone:
			done++
		case StatusFailed:
			failed++
		case StatusCancelled:
			cancelled++
		}
	}
	s.mu.Unlock()

	metrics := []metricDef{
		{"ealb_runs_started_total", "Scenario/sweep runs started on the engine.", "counter", fmt.Sprintf("%d", st.RunsStarted)},
		{"ealb_runs_completed_total", "Scenario/sweep runs completed successfully.", "counter", fmt.Sprintf("%d", st.RunsCompleted)},
		{"ealb_runs_failed_total", "Scenario/sweep runs that failed or were cancelled.", "counter", fmt.Sprintf("%d", st.RunsFailed)},
		{"ealb_service_runs_queued", "Service runs waiting to start.", "gauge", fmt.Sprintf("%d", queued)},
		{"ealb_service_runs_running", "Service runs currently executing.", "gauge", fmt.Sprintf("%d", running)},
		{"ealb_service_runs_done", "Service runs finished successfully.", "gauge", fmt.Sprintf("%d", done)},
		{"ealb_service_runs_failed", "Service runs finished with an error.", "gauge", fmt.Sprintf("%d", failed)},
		{"ealb_service_runs_cancelled", "Service runs cancelled before completion.", "gauge", fmt.Sprintf("%d", cancelled)},
		{"ealb_engine_workers", "Engine worker pool size.", "gauge", fmt.Sprintf("%d", st.Workers)},
		{"ealb_engine_jobs_submitted_total", "Simulation jobs submitted to the pool.", "counter", fmt.Sprintf("%d", st.JobsSubmitted)},
		{"ealb_engine_jobs_completed_total", "Simulation jobs completed by the pool.", "counter", fmt.Sprintf("%d", st.JobsCompleted)},
		{"ealb_engine_jobs_failed_total", "Simulation jobs that failed (including cancellations).", "counter", fmt.Sprintf("%d", st.JobsFailed)},
		{"ealb_engine_queue_depth", "Jobs submitted but not yet started.", "gauge", fmt.Sprintf("%d", st.QueueDepth)},
		{"ealb_engine_intervals_simulated_total", "Reallocation intervals completed by cluster jobs.", "counter", fmt.Sprintf("%d", st.IntervalsSimulated)},
		{"ealb_cluster_failures_total", "Server failures injected by completed jobs (churn process plus manual injection).", "counter", fmt.Sprintf("%d", st.ClusterFailures)},
		{"ealb_cluster_apps_lost_total", "Applications lost to failures with no surviving capacity, across completed jobs.", "counter", fmt.Sprintf("%d", st.ClusterAppsLost)},
		{"ealb_simulated_joules_total", "Total energy simulated by completed jobs, in Joules.", "counter", fmt.Sprintf("%.6g", st.SimulatedJoules)},
		{"ealb_simulated_joules_saved_total", "Simulated savings versus always-on baselines, in Joules.", "counter", fmt.Sprintf("%.6g", st.JoulesSaved)},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind)
		fmt.Fprintf(w, "%s %s\n", m.name, m.value)
	}
	w.Write(s.appendHistMetrics(nil))
}

// writeJSON answers with v indented two spaces per level and a final
// newline: the bytes a json.Encoder with SetIndent("", "  ") writes. A
// value json.Marshal rejects answers 500 with an error body instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	compact, err := json.Marshal(v)
	writeIndented(w, code, compact, err)
}

// writeRun answers with the run's JSON answer (appendJSON) indented as
// writeJSON indents.
func writeRun(w http.ResponseWriter, code int, run *Run) {
	compact, err := run.appendJSON(make([]byte, 0, len(run.result)+1024))
	writeIndented(w, code, compact, err)
}

// writeIndented answers with compact, the encoding of an answer, indented
// by appendIndent — or, when encoding failed with err, with 500 and an
// error body.
func writeIndented(w http.ResponseWriter, code int, compact []byte, err error) {
	if err != nil {
		code = http.StatusInternalServerError
		// A map of strings always encodes.
		compact, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encode response: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Indenting a run record more than doubles it (a 2-cell sweep's 27 KB
	// become 60 KB), so 3× holds the answer without regrowing.
	w.Write(append(appendIndent(make([]byte, 0, 3*len(compact)), compact), '\n'))
}

// appendIndent appends compact to dst indented as json.Indent(dst,
// compact, "", "  ") would, without its validating scanner: compact
// must be json.Marshal output, which is valid and has no whitespace
// outside strings. Bytes between structural characters are copied in
// runs; strings are skipped over whole, so a brace, comma or colon
// inside one is never structural. FuzzAppendIndent pins the two
// outputs byte for byte.
func appendIndent(dst, compact []byte) []byte {
	depth, start := 0, 0
	for i := 0; i < len(compact); i++ {
		switch compact[i] {
		case '"':
			for i++; compact[i] != '"'; i++ {
				if compact[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if i+1 < len(compact) && (compact[i+1] == '}' || compact[i+1] == ']') {
				i++ // an empty object or array stays on its line
				continue
			}
			depth++
			dst = appendNewline(append(dst, compact[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, compact[start:i]...), depth)
			start = i
		case ',':
			dst = appendNewline(append(dst, compact[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, compact[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(dst, compact[start:]...)
}

// newlineIndent is a newline and the indent of depth 16. appendNewline
// copies a prefix of it in one piece; a deeper level adds the rest of
// its spaces from the tail.
const newlineIndent = "\n" + "                                "

// appendNewline appends a newline and the indent of depth: two spaces a
// level.
func appendNewline(dst []byte, depth int) []byte {
	n := 1 + 2*depth
	k := min(n, len(newlineIndent))
	dst = append(dst, newlineIndent[:k]...)
	for n -= k; n > 0; n -= k {
		k = min(n, len(newlineIndent)-1)
		dst = append(dst, newlineIndent[1:1+k]...)
	}
	return dst
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
