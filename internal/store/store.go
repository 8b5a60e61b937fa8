// Package store persists the scenario service's runs: run records,
// per-cell interval and trace streams, and checkpoint cells. It is the
// durability layer behind ealb-serve — the service holds live runs in
// memory for streaming and cancellation, and writes every state
// transition through a RunStore so a restart can recover history and
// resume interrupted work.
//
// Determinism makes checkpoints nearly free: a run's normalized spec
// plus its seed reproduces every cell bit-for-bit, so the only state
// worth persisting per cell is its finished Result. An interrupted
// sweep resumes by re-running the incomplete cells (each re-derives its
// random streams from its own seed) and merging them with the
// checkpointed ones; the merged result is byte-identical to an
// uninterrupted run, which the service's golden-digest tests pin.
//
// Two implementations ship: Memory (the default — current in-process
// behaviour, with bounded retention of finished-run stream buffers) and
// Disk (one directory per run holding run.json plus NDJSON streams,
// selected by ealb-serve's -store-dir). Multiple service replicas may
// share one Disk store: run IDs are reserved with an atomic mkdir, and
// interrupted runs are claimed for resumption through expiring leases.
package store

import (
	"encoding/json"
	"fmt"
	"time"
)

// Record is the durable form of one run. Spec holds the normalized
// engine.SweepSpec the run executes (always the expanded form, even for
// v1 single-scenario submissions — Single restores the presentation);
// Result holds the marshaled engine.Result (Single) or
// engine.SweepResult once the run finishes.
type Record struct {
	ID      string          `json:"id"`
	Seq     int64           `json:"seq"`
	Status  string          `json:"status"`
	Single  bool            `json:"single,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	IdemKey string          `json:"idempotency_key,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// CellResult is one checkpoint: the marshaled engine.Result of a fully
// completed sweep cell, identified by its expansion index. A run's
// checkpoints plus its recorded spec are sufficient to resume it.
type CellResult struct {
	Cell   int             `json:"cell"`
	Result json.RawMessage `json:"result"`
}

// RunStore persists runs for the scenario service. Implementations must
// be safe for concurrent use: stream appends arrive from engine worker
// goroutines while HTTP handlers read.
//
// Streams are NDJSON lines (each line a marshaled interval statistic or
// trace event, without the trailing newline) keyed by (run, cell), and
// are append-only per cell in observation order — the service streams
// them back verbatim, so stored bytes must round-trip unmodified.
type RunStore interface {
	// NewID reserves the next store-unique run ID and its sequence
	// number. IDs never repeat for the lifetime of the store's backing
	// state: a Disk store scans its directory on open and reserves IDs
	// atomically, so a restarted — or concurrently running — service
	// can never collide with persisted history.
	NewID() (id string, seq int64, err error)

	// PutRun upserts a run record (keyed by rec.ID).
	PutRun(rec Record) error
	// GetRun returns the record for id, reporting whether it exists.
	GetRun(id string) (Record, bool, error)
	// ListRuns returns every record in ascending sequence order. When
	// some stored records do not decode, it returns the ones that do
	// with a CorruptRecords error naming the others.
	ListRuns() ([]Record, error)

	// AppendInterval appends one interval line to a cell's stream.
	AppendInterval(id string, cell int, line []byte) error
	// Intervals returns a cell's interval lines in append order.
	Intervals(id string, cell int) ([][]byte, error)
	// DropIntervals discards the run's interval streams (a completed
	// run's intervals live in its recorded result).
	DropIntervals(id string) error
	// TruncateIntervals drops interval lines of every cell for which
	// keep reports false (resume discards the partial stream of
	// incomplete cells before re-running them).
	TruncateIntervals(id string, keep func(cell int) bool) error

	// AppendTrace appends one decision-event line to a cell's trace.
	AppendTrace(id string, cell int, line []byte) error
	// Trace returns a cell's trace lines in append order.
	Trace(id string, cell int) ([][]byte, error)
	// TruncateTrace drops trace lines of every cell for which keep
	// reports false (resume discards the partial trace of incomplete
	// cells before re-running them).
	TruncateTrace(id string, keep func(cell int) bool) error

	// PutCell records a completed cell checkpoint.
	PutCell(id string, c CellResult) error
	// Cells returns the run's checkpoints (order unspecified; cells are
	// keyed by their expansion index).
	Cells(id string) ([]CellResult, error)
	// DropCells discards the run's checkpoints (a completed run's cells
	// live in its recorded result).
	DropCells(id string) error

	// Claim acquires or renews the run's lease for owner. It succeeds
	// when the run is unleased, the existing lease has expired, or the
	// existing lease is already owner's (renewal — the service renews on
	// every checkpoint, so a live run's lease outlasts its ttl). A
	// replica restarted under the same owner name reclaims its own runs
	// immediately; a different replica must wait out the ttl.
	Claim(id, owner string, ttl time.Duration) (bool, error)
	// Release drops the run's lease if owner holds it.
	Release(id, owner string) error

	// Close releases the store's resources (open stream handles).
	Close() error
}

// FormatID renders a sequence number as a run ID. The zero-padded form
// is shared by every store so IDs sort with history; the service orders
// its run list by Seq, which stays correct past run-999999.
func FormatID(seq int64) string { return fmt.Sprintf("run-%06d", seq) }

// lease is the shared claim state of both implementations: a run is
// claimable when no lease exists, the lease expired, or the claimant
// already owns it.
type lease struct {
	Owner   string    `json:"owner"`
	Expires time.Time `json:"expires"`
}

func (l lease) grants(owner string, now time.Time) bool {
	return l.Owner == "" || l.Owner == owner || now.After(l.Expires)
}
