package store

import (
	"sort"
	"sync"
	"time"
)

// memoryRetention is how many finished runs' stream buffers a
// Memory store keeps before evicting the oldest. Records are never
// evicted — only the interval/trace payloads, which is what stops a
// long-lived process from pinning every event of every run it ever
// served (the pre-store service kept failed-run interval tails and all
// trace tails for its whole lifetime).
const memoryRetention = 64

// Memory is the in-process RunStore: the service's historical default.
// Nothing survives a restart — checkpoints and leases behave uniformly
// with the Disk store so the service code has one path, but resumption
// is only meaningful for durable stores.
type Memory struct {
	mu sync.Mutex
	//ealb:guarded-by(mu)
	seq int64
	//ealb:guarded-by(mu)
	runs   map[string]*memRun
	retain int // fixed at construction
	// finished lists runs whose stream buffers are still retained,
	// oldest first.
	//ealb:guarded-by(mu)
	finished []string
}

type memRun struct {
	rec       Record
	intervals map[int][][]byte
	trace     map[int][][]byte
	cells     map[int]CellResult
	lease     lease
	evicted   bool
}

// NewMemory returns an in-process store retaining the stream buffers of
// the memoryRetention most recently finished runs.
func NewMemory() *Memory { return newMemoryRetain(memoryRetention) }

// newMemoryRetain returns an in-process store retaining the stream
// buffers of at most retain finished runs (retain < 1 keeps none).
func newMemoryRetain(retain int) *Memory {
	return &Memory{runs: make(map[string]*memRun), retain: retain}
}

// run returns (creating if needed) the record for id. Caller holds m.mu.
//
//ealb:locked(mu)
func (m *Memory) run(id string) *memRun {
	r, ok := m.runs[id]
	if !ok {
		r = &memRun{
			intervals: make(map[int][][]byte),
			trace:     make(map[int][][]byte),
			cells:     make(map[int]CellResult),
		}
		m.runs[id] = r
	}
	return r
}

// NewID reserves the next sequence number.
func (m *Memory) NewID() (string, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return FormatID(m.seq), m.seq, nil
}

// PutRun upserts the record; a terminal status enrolls the run in the
// stream-retention window and evicts the oldest beyond it.
func (m *Memory) PutRun(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.run(rec.ID)
	wasTerminal := terminalStatus(r.rec.Status)
	r.rec = rec
	if terminalStatus(rec.Status) && !wasTerminal && !r.evicted {
		m.finished = append(m.finished, rec.ID)
		for len(m.finished) > m.retain {
			if old, ok := m.runs[m.finished[0]]; ok {
				old.intervals = make(map[int][][]byte)
				old.trace = make(map[int][][]byte)
				old.evicted = true
			}
			m.finished = m.finished[1:]
		}
	}
	return nil
}

// terminalStatus mirrors the service's terminal statuses without
// importing it (serve imports store).
func terminalStatus(s string) bool {
	return s == "done" || s == "failed" || s == "cancelled"
}

// GetRun returns the record for id.
func (m *Memory) GetRun(id string) (Record, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return Record{}, false, nil
	}
	return r.rec, true, nil
}

// ListRuns returns every record in sequence order.
func (m *Memory) ListRuns() ([]Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, 0, len(m.runs))
	//ealb:allow-nondet iteration order erased by the seq sort below
	for _, r := range m.runs {
		out = append(out, r.rec)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// AppendInterval appends one interval line to a cell's stream.
func (m *Memory) AppendInterval(id string, cell int, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.run(id)
	r.intervals[cell] = append(r.intervals[cell], cloneLine(line))
	return nil
}

// Intervals returns a cell's interval lines.
func (m *Memory) Intervals(id string, cell int) ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil, nil
	}
	return append([][]byte(nil), r.intervals[cell]...), nil
}

// DropIntervals discards the run's interval streams.
func (m *Memory) DropIntervals(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.runs[id]; ok {
		r.intervals = make(map[int][][]byte)
	}
	return nil
}

// TruncateIntervals drops interval lines of cells keep rejects.
func (m *Memory) TruncateIntervals(id string, keep func(cell int) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil
	}
	//ealb:allow-nondet map deletion is per-key; iteration order is irrelevant
	for cell := range r.intervals {
		if !keep(cell) {
			delete(r.intervals, cell)
		}
	}
	return nil
}

// AppendTrace appends one decision-event line to a cell's trace.
func (m *Memory) AppendTrace(id string, cell int, line []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.run(id)
	r.trace[cell] = append(r.trace[cell], cloneLine(line))
	return nil
}

// Trace returns a cell's trace lines.
func (m *Memory) Trace(id string, cell int) ([][]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil, nil
	}
	return append([][]byte(nil), r.trace[cell]...), nil
}

// TruncateTrace drops trace lines of cells keep rejects.
func (m *Memory) TruncateTrace(id string, keep func(cell int) bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil
	}
	//ealb:allow-nondet map deletion is per-key; iteration order is irrelevant
	for cell := range r.trace {
		if !keep(cell) {
			delete(r.trace, cell)
		}
	}
	return nil
}

// PutCell records a completed cell checkpoint.
func (m *Memory) PutCell(id string, c CellResult) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.run(id).cells[c.Cell] = c
	return nil
}

// Cells returns the run's checkpoints in cell order.
func (m *Memory) Cells(id string) ([]CellResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	if !ok {
		return nil, nil
	}
	out := make([]CellResult, 0, len(r.cells))
	//ealb:allow-nondet iteration order erased by the cell sort below
	for _, c := range r.cells {
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out, nil
}

// DropCells discards the run's checkpoints.
func (m *Memory) DropCells(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.runs[id]; ok {
		r.cells = make(map[int]CellResult)
	}
	return nil
}

// Claim acquires or renews the run's lease.
func (m *Memory) Claim(id, owner string, ttl time.Duration) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.run(id)
	now := time.Now()
	if !r.lease.grants(owner, now) {
		return false, nil
	}
	r.lease = lease{Owner: owner, Expires: now.Add(ttl)}
	return true, nil
}

// Release drops the run's lease if owner holds it.
func (m *Memory) Release(id, owner string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r, ok := m.runs[id]; ok && r.lease.Owner == owner {
		r.lease = lease{}
	}
	return nil
}

// Close is a no-op for the in-process store.
func (m *Memory) Close() error { return nil }

// cloneLine copies a stream line so stored bytes never alias caller
// buffers.
func cloneLine(line []byte) []byte { return append([]byte(nil), line...) }
