package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ealb/internal/engine"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// Span layers. Spans are recorded from outside the program, around the
// calls into each layer: the client's HTTP round trips, the service's
// handler, the run store, and the cluster's interval phases.
const (
	layerHTTP    = "http"
	layerServe   = "serve"
	layerStore   = "store"
	layerCluster = "cluster"
	// layerInterval marks one whole simulated interval; it is the
	// denominator of the cluster phases, not a layer of its own.
	layerInterval = "interval"
)

// span is one timed call into a layer. start and end are offsets from
// the log's base time; bytes counts what the call wrote.
type span struct {
	layer, name string
	start, end  time.Duration
	bytes       int
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog keeps spans in memory until the run ends. It is safe for
// concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() time.Duration { return time.Since(l.base) }

// since records a span of the given layer that started at start and
// ends now.
func (l *spanLog) since(layer, name string, start time.Duration, bytes int) {
	end := l.now()
	l.mu.Lock()
	l.spans = append(l.spans, span{layer, name, start, end, bytes})
	l.mu.Unlock()
}

// snapshot returns the recorded spans sorted by start.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	out := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// timeHandler wraps the service's handler so each request records a
// serve span named after its route, with the response bytes written.
func timeHandler(h http.Handler, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := log.now()
		h.ServeHTTP(cw, r)
		log.since(layerServe, routeName(r), start, cw.n)
	})
}

// routeName names the service route a request takes.
func routeName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/runs" && r.Method == http.MethodPost:
		return "submit"
	case p == "/v1/runs":
		return "list"
	case strings.HasPrefix(p, "/v1/runs/") && strings.HasSuffix(p, "/intervals"):
		return "intervals"
	case strings.HasPrefix(p, "/v1/runs/") && strings.Count(p, "/") == 3:
		return "get"
	}
	return "other"
}

// countingWriter counts response bytes and keeps the writer flushable,
// which the service's live streams rely on.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timedStore is a RunStore that records a store span around every call
// of the wrapped store, with the bytes each write hands it.
type timedStore struct {
	inner store.RunStore
	log   *spanLog
}

// timed starts a span; the returned function ends it.
func (s *timedStore) timed(name string, bytes int) func() {
	start := s.log.now()
	return func() { s.log.since(layerStore, name, start, bytes) }
}

func (s *timedStore) NewID() (string, int64, error) {
	defer s.timed("new_id", 0)()
	return s.inner.NewID()
}

func (s *timedStore) PutRun(rec store.Record) error {
	raw, _ := json.Marshal(rec) // only sizes the span; the store marshals its own copy
	defer s.timed("put_run", len(raw))()
	return s.inner.PutRun(rec)
}

func (s *timedStore) GetRun(id string) (store.Record, bool, error) {
	defer s.timed("get_run", 0)()
	return s.inner.GetRun(id)
}

func (s *timedStore) ListRuns() ([]store.Record, error) {
	defer s.timed("list_runs", 0)()
	return s.inner.ListRuns()
}

func (s *timedStore) AppendInterval(id string, cell int, line []byte) error {
	defer s.timed("append_interval", len(line))()
	return s.inner.AppendInterval(id, cell, line)
}

func (s *timedStore) Intervals(id string, cell int) ([][]byte, error) {
	defer s.timed("intervals", 0)()
	return s.inner.Intervals(id, cell)
}

func (s *timedStore) DropIntervals(id string) error {
	defer s.timed("drop", 0)()
	return s.inner.DropIntervals(id)
}

func (s *timedStore) TruncateIntervals(id string, keep func(cell int) bool) error {
	defer s.timed("truncate", 0)()
	return s.inner.TruncateIntervals(id, keep)
}

func (s *timedStore) AppendTrace(id string, cell int, line []byte) error {
	defer s.timed("append_trace", len(line))()
	return s.inner.AppendTrace(id, cell, line)
}

func (s *timedStore) Trace(id string, cell int) ([][]byte, error) {
	defer s.timed("trace", 0)()
	return s.inner.Trace(id, cell)
}

func (s *timedStore) TruncateTrace(id string, keep func(cell int) bool) error {
	defer s.timed("truncate", 0)()
	return s.inner.TruncateTrace(id, keep)
}

func (s *timedStore) PutCell(id string, c store.CellResult) error {
	defer s.timed("put_cell", len(c.Result))()
	return s.inner.PutCell(id, c)
}

func (s *timedStore) Cells(id string) ([]store.CellResult, error) {
	defer s.timed("cells", 0)()
	return s.inner.Cells(id)
}

func (s *timedStore) DropCells(id string) error {
	defer s.timed("drop", 0)()
	return s.inner.DropCells(id)
}

func (s *timedStore) Claim(id, owner string, ttl time.Duration) (bool, error) {
	defer s.timed("claim", 0)()
	return s.inner.Claim(id, owner, ttl)
}

func (s *timedStore) Release(id, owner string) error {
	defer s.timed("release", 0)()
	return s.inner.Release(id, owner)
}

func (s *timedStore) Close() error { return s.inner.Close() }

// phaseTracer is the cluster's tracer in a traced run: phase timings
// become cluster spans, and decision events are counted by kind.
type phaseTracer struct {
	log    *spanLog
	events []atomic.Uint64
}

func newPhaseTracer(log *spanLog) *phaseTracer {
	return &phaseTracer{log: log, events: make([]atomic.Uint64, trace.NumKinds())}
}

func (t *phaseTracer) Event(e trace.Event) {
	if int(e.Kind) < len(t.events) {
		t.events[e.Kind].Add(1)
	}
}

func (t *phaseTracer) Phase(p trace.Phase, d time.Duration) {
	t.log.since(layerCluster, p.String(), t.log.now()-d, 0)
}

// eventCounts returns the events counted so far, by kind.
func (t *phaseTracer) eventCounts() []uint64 {
	out := make([]uint64, len(t.events))
	for i := range t.events {
		out[i] = t.events[i].Load()
	}
	return out
}

// engineDelta is the change in a pool's counters over a window.
type engineDelta struct {
	jobs, intervals    uint64
	queueWaitNS, runNS int64
}

func engineSince(before, after engine.Stats) engineDelta {
	return engineDelta{
		jobs:        after.JobRunDuration.Count - before.JobRunDuration.Count,
		intervals:   after.IntervalsSimulated - before.IntervalsSimulated,
		queueWaitNS: after.JobQueueWait.SumNS - before.JobQueueWait.SumNS,
		runNS:       after.JobRunDuration.SumNS - before.JobRunDuration.SumNS,
	}
}

// layerInputs is everything a traced run measured. Metrics of a layer
// the workload does not exercise read 0.
type layerInputs struct {
	untraced, traced windowStats
	log              *spanLog
	engine           engineDelta
	// sweepMS holds the times of untraced engine replays of service ops.
	sweepMS []float64
	// migrations holds the migration count of every traced interval.
	migrations []int
	// events counts decision events by kind over the traced intervals.
	events          []uint64
	newS, rebuildMS float64
}

// eventKinds are the decision-event kinds a single cluster emits.
var eventKinds = []trace.Kind{
	trace.KindReport, trace.KindMove, trace.KindWake, trace.KindSleep,
	trace.KindAdmit, trace.KindFail, trace.KindRepair,
}

var storeCalls = []string{"new_id", "put_run", "append_interval", "put_cell", "claim", "release", "drop", "get_run", "intervals"}

// perLayer sets every per-layer metric from a traced run.
func perLayer(o *outcome, in layerInputs) {
	spans := in.log.snapshot()
	byOp := assignToOps(spans, in.traced.ops, in.log.base)
	nOps := float64(max(len(in.traced.ops), 1))

	byName := map[string][]float64{} // layer.name → durations in ms
	for _, s := range spans {
		byName[s.layer+"."+s.name] = append(byName[s.layer+"."+s.name], ms(s.dur()))
	}

	// Per-op sums over the spans that started inside an op.
	var respBytes, storeBytes, storeCallsN int
	var httpNS, handlerNS time.Duration
	unattributed := make([]float64, len(in.traced.ops))
	for i, op := range in.traced.ops {
		for _, s := range byOp[i] {
			switch s.layer {
			case layerHTTP:
				httpNS += s.dur()
			case layerServe:
				handlerNS += s.dur()
				respBytes += s.bytes
			case layerStore:
				storeCallsN++
				storeBytes += s.bytes
			}
		}
		unattributed[i] = ms(op.dur() - covered(byOp[i]))
	}

	for _, route := range []string{"submit", "intervals", "get", "list"} {
		o.set("serve."+route+"_ms", median(byName[layerServe+"."+route]), "ms")
	}
	o.set("serve.resp_kb_per_op", float64(respBytes)/1024/nOps, "KiB")
	o.set("http.transport_ms_per_op", ms(httpNS-handlerNS)/nOps, "ms")

	for _, call := range storeCalls {
		o.set("store."+call+"_us", 1000*median(byName[layerStore+"."+call]), "us")
	}
	o.set("store.list_runs_ms", median(byName[layerStore+".list_runs"]), "ms")
	o.set("store.calls_per_op", float64(storeCallsN)/nOps, "count")
	o.set("store.kb_written_per_op", float64(storeBytes)/1024/nOps, "KiB")

	e := in.engine
	jobs := float64(max(e.jobs, 1))
	o.set("engine.queue_wait_ms", ms(time.Duration(e.queueWaitNS))/jobs, "ms")
	o.set("engine.job_run_ms", ms(time.Duration(e.runNS))/jobs, "ms")
	o.set("engine.jobs_per_op", float64(e.jobs)/nOps, "count")
	o.set("engine.intervals_per_op", float64(e.intervals)/nOps, "count")
	o.set("engine.sweep_ms", median(in.sweepMS), "ms")

	phases, unphased := phaseTimes(spans)
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		o.set("cluster."+p.String()+"_ms", median(phases[p]), "ms")
	}
	o.set("cluster.unphased_ms", median(unphased), "ms")
	o.set("cluster.new_s", in.newS, "s")
	o.set("cluster.rebuild_ms", in.rebuildMS, "ms")
	nIntervals := float64(max(len(in.migrations), 1))
	total := 0
	for _, m := range in.migrations {
		total += m
	}
	o.set("cluster.migrations", float64(total)/nIntervals, "count")
	for _, k := range eventKinds {
		var n uint64
		if int(k) < len(in.events) {
			n = in.events[k]
		}
		o.set("cluster.events."+k.String(), float64(n)/nIntervals, "count")
	}

	u := in.untraced
	uOps := float64(max(len(u.ops), 1))
	o.set("go.alloc_kb_per_op", float64(u.allocBytes)/1024/uOps, "KiB")
	o.set("go.gc_per_op", float64(u.gcCycles)/uOps, "count")

	o.set("unattributed_ms", median(unattributed), "ms")
	tracedP50, untracedP50 := median(in.traced.opMillis()), median(u.opMillis())
	o.set("trace_overhead_pct", 100*(tracedP50/untracedP50-1), "%")
	o.notef("traced op latency: %s", tailSummary(in.traced.opMillis()))
	o.notef("untraced op latency: %s", tailSummary(u.opMillis()))
}

// assignToOps groups the spans (sorted by start) by the op whose time
// range their start falls in. Spans outside every op are dropped.
func assignToOps(spans []span, ops []opRecord, base time.Time) [][]span {
	out := make([][]span, len(ops))
	for _, s := range spans {
		if s.layer == layerInterval {
			continue
		}
		i := sort.Search(len(ops), func(i int) bool { return ops[i].end.Sub(base) > s.start })
		if i < len(ops) && ops[i].start.Sub(base) <= s.start {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// covered returns the time the union of spans (sorted by start) covers.
func covered(spans []span) time.Duration {
	var total, curStart, curEnd time.Duration
	open := false
	for _, s := range spans {
		switch {
		case !open:
			curStart, curEnd, open = s.start, s.end, true
		case s.start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
		case s.end > curEnd:
			curEnd = s.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// phaseTimes splits every interval span into the cluster phase spans
// that ended inside it: per phase, the time each interval spent in it;
// and per interval, the time outside all four phases.
func phaseTimes(spans []span) (phases [trace.NumPhases][]float64, unphased []float64) {
	var intervals, phaseSpans []span
	for _, s := range spans {
		switch s.layer {
		case layerInterval:
			intervals = append(intervals, s)
		case layerCluster:
			phaseSpans = append(phaseSpans, s)
		}
	}
	sort.Slice(phaseSpans, func(i, j int) bool { return phaseSpans[i].end < phaseSpans[j].end })
	for _, iv := range intervals {
		lo := sort.Search(len(phaseSpans), func(i int) bool { return phaseSpans[i].end > iv.start })
		var sum [trace.NumPhases]time.Duration
		var all time.Duration
		for _, ps := range phaseSpans[lo:] {
			if ps.end > iv.end {
				break
			}
			for p := trace.Phase(0); p < trace.NumPhases; p++ {
				if ps.name == p.String() {
					sum[p] += ps.dur()
				}
			}
			all += ps.dur()
		}
		for p := range sum {
			phases[p] = append(phases[p], ms(sum[p]))
		}
		unphased = append(unphased, ms(iv.dur()-all))
	}
	return phases, unphased
}
