package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// phaseRecord is the NDJSON line shape of a phase timing. Event lines
// carry a "kind" field, phase lines a "phase" field, so a consumer can
// split the stream without schema negotiation.
type phaseRecord struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
}

// Writer is an NDJSON tracer: one JSON object per line, events and
// phase timings interleaved in emission order. Writes are buffered and
// mutex-serialized (a sweep's cells may trace concurrently); errors are
// sticky — the first write error stops all further output and is
// reported by Flush.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter returns a tracer writing NDJSON to w. The caller owns w and
// must call Flush before closing it.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Event implements Tracer.
func (w *Writer) Event(e Event) {
	w.mu.Lock()
	if w.err == nil {
		w.err = w.enc.Encode(e)
	}
	w.mu.Unlock()
}

// Phase implements Tracer.
func (w *Writer) Phase(p Phase, d time.Duration) {
	w.mu.Lock()
	if w.err == nil {
		w.err = w.enc.Encode(phaseRecord{Phase: p.String(), NS: int64(d)})
	}
	w.mu.Unlock()
}

// Flush drains the buffer and returns the first error encountered by
// any write, if any.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}
