package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Disk is the durable RunStore: one directory per run under
// <dir>/runs/, holding the run record (run.json, written atomically via
// rename), three append-only NDJSON streams (intervals.ndjson,
// trace.ndjson, cells.ndjson — each line tagged with its cell index),
// and the resume lease (lease.json).
//
// Run IDs are reserved with an atomic mkdir of the run's directory, so
// they are unique across restarts and across replicas sharing the
// directory. A torn final line — the crash window of an append without
// fsync — is treated as truncation: readers stop at the first
// unparsable line, which for checkpoints merely re-runs one cell.
type Disk struct {
	dir string

	mu sync.Mutex
	//ealb:guarded-by(mu)
	seq int64 // high-water mark of reserved sequence numbers
	// handles caches open append handles per stream file so per-interval
	// appends do not reopen the file; closed on Drop/Truncate/Close.
	//ealb:guarded-by(mu)
	handles map[string]*os.File
}

// streamLine is one stored NDJSON stream entry: the cell index plus the
// caller's marshaled line, stored verbatim so it streams back
// byte-identical.
type streamLine struct {
	Cell int             `json:"cell"`
	Line json.RawMessage `json:"line"`
}

// OpenDisk opens (creating if needed) a disk store rooted at dir and
// scans existing runs to restore the ID high-water mark.
func OpenDisk(dir string) (*Disk, error) {
	d := &Disk{dir: dir, handles: make(map[string]*os.File)}
	if err := os.MkdirAll(d.runsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(d.runsDir())
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if seq, ok := parseID(e.Name()); ok && seq > d.seq {
			d.seq = seq
		}
	}
	return d, nil
}

func (d *Disk) runsDir() string         { return filepath.Join(d.dir, "runs") }
func (d *Disk) runDir(id string) string { return filepath.Join(d.runsDir(), id) }

// parseID extracts the sequence number from a run directory name.
func parseID(name string) (int64, bool) {
	rest, ok := strings.CutPrefix(name, "run-")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}

// NewID reserves the next unused run ID by atomically creating its
// directory — mkdir fails on an existing name, so two replicas sharing
// the store can never reserve the same ID.
func (d *Disk) NewID() (string, int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		d.seq++
		id := FormatID(d.seq)
		err := os.Mkdir(d.runDir(id), 0o755)
		if err == nil {
			return id, d.seq, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", 0, fmt.Errorf("store: reserve %s: %w", id, err)
		}
		// Another replica holds this ID; keep scanning upward.
	}
}

// PutRun writes the record atomically (temp file + rename), creating
// the run directory if the record arrived from another store instance.
func (d *Disk) PutRun(rec Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(d.runDir(rec.ID), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(d.runDir(rec.ID), "run.json"), raw)
}

// GetRun reads the record for id.
func (d *Disk) GetRun(id string) (Record, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.getRunLocked(id)
}

func (d *Disk) getRunLocked(id string) (Record, bool, error) {
	raw, err := os.ReadFile(filepath.Join(d.runDir(id), "run.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return Record{}, false, nil
	}
	if err != nil {
		return Record{}, false, err
	}
	rec, err := decodeRecord(raw)
	if err != nil {
		return Record{}, false, &RecordError{ID: id, Err: err}
	}
	return rec, true, nil
}

// decodeRecord decodes a run.json record as json.Unmarshal does, without
// scanning the result: a finished run's result is nearly all of its
// record, and Recover validates it once (Valid) before serving it.
// The walker finds the last top-level member keyed exactly "result",
// json.Unmarshal decodes the record without that member, and Result is
// the member's value, a slice of raw. The result bytes of a record whose
// rest decodes are not checked here, so a done run's invalid result
// reaches Recover, which reports it on the run.
//
// Every other record decodes whole with json.Unmarshal: one the walker
// finds no such member in (it reads compact JSON only), one whose rest
// does not decode (so a corrupt record fails with json.Unmarshal's
// error), and one whose rest still sets Result (a duplicate "result", or
// a key like "Result" that json.Unmarshal also matches to it).
// FuzzDecodeRecord pins it to json.Unmarshal.
func decodeRecord(raw []byte) (Record, error) {
	if cutFrom, cutTo, val, ok := resultMember(raw); ok {
		rest := make([]byte, 0, len(raw)-(cutTo-cutFrom))
		rest = append(append(rest, raw[:cutFrom]...), raw[cutTo:]...)
		var rec Record
		if json.Unmarshal(rest, &rec) == nil && rec.Result == nil {
			rec.Result = val
			return rec, nil
		}
	}
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// resultMember walks the compact JSON object raw holds, member by
// member to its closing brace, and returns the last member keyed
// exactly "result": raw[cutFrom:cutTo] is the member with the comma that
// joins it to its neighbour, and val its value. ok is false when raw is
// no such object or holds no such member, or when whitespace sits where
// the walk would step over it (around a key, a value or a comma).
func resultMember(raw []byte) (cutFrom, cutTo int, val []byte, ok bool) {
	if len(raw) == 0 || raw[0] != '{' {
		return 0, 0, nil, false
	}
	for i := 1; i < len(raw) && raw[i] == '"'; {
		k := skipContainer(raw, i)
		if k < 0 || k+1 >= len(raw) || raw[k] != ':' || isSpace(raw[k+1]) {
			return 0, 0, nil, false
		}
		end := SkipValue(raw, k+1)
		if end <= k+1 || end >= len(raw) {
			return 0, 0, nil, false
		}
		if string(raw[i+1:k-1]) == "result" {
			if isSpace(raw[end-1]) {
				return 0, 0, nil, false // a literal runs up to the delimiter
			}
			cutFrom, cutTo, val = i-1, end, raw[k+1:end]
			if i == 1 { // the first member takes the comma after it
				cutFrom = i
				if raw[end] == ',' {
					cutTo = end + 1
				}
			}
		}
		switch raw[end] {
		case '}':
			return cutFrom, cutTo, val, val != nil
		case ',':
			i = end + 1
		default:
			return 0, 0, nil, false
		}
	}
	return 0, 0, nil, false
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// RecordError reports a run record that does not decode: empty or torn
// by a power loss, or not a record at all.
type RecordError struct {
	ID  string
	Err error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("store: run %s: corrupt record: %v", e.ID, e.Err)
}

// CorruptRecords is the error ListRuns returns next to the records that
// decode when some do not, one RecordError each in the order of their
// directory names.
type CorruptRecords []*RecordError

func (c CorruptRecords) Error() string {
	msgs := make([]string, len(c))
	for i, e := range c {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "; ")
}

// ListRuns reads every persisted record in sequence order. Reserved
// directories whose record was never written (a crash between NewID and
// PutRun) are skipped — their IDs stay burned, which is the point. A
// record that does not decode is skipped too, and reported: the records
// that do decode come back with a CorruptRecords error. Any other error
// is an I/O error and returns no records.
func (d *Disk) ListRuns() ([]Record, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.runsDir())
	if err != nil {
		return nil, err
	}
	var out []Record
	var corrupt CorruptRecords
	for _, e := range entries {
		if _, ok := parseID(e.Name()); !ok {
			continue
		}
		rec, ok, err := d.getRunLocked(e.Name())
		var re *RecordError
		switch {
		case errors.As(err, &re):
			corrupt = append(corrupt, re)
		case err != nil:
			return nil, err
		case ok:
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if corrupt != nil {
		return out, corrupt
	}
	return out, nil
}

// append writes one tagged line to a run's stream file through the
// cached handle.
func (d *Disk) append(id, file string, cell int, line []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), file)
	f, ok := d.handles[path]
	if !ok {
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		d.handles[path] = f
	}
	raw, err := json.Marshal(streamLine{Cell: cell, Line: json.RawMessage(line)})
	if err != nil {
		return err
	}
	_, err = f.Write(append(raw, '\n'))
	return err
}

// readStream returns a cell's lines from a run's stream file, stopping
// at the first unparsable (torn) line.
func (d *Disk) readStream(id, file string, cell int) ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readStreamLocked(id, file, cell)
}

func (d *Disk) readStreamLocked(id, file string, cell int) ([][]byte, error) {
	var out [][]byte
	err := scanStream(filepath.Join(d.runDir(id), file), func(sl streamLine, _ []byte) {
		if sl.Cell == cell {
			out = append(out, []byte(sl.Line))
		}
	})
	return out, err
}

// scanStream is the one torn-tail rule of the stream files: it yields
// each newline-terminated line that parses, in file order, with its raw
// bytes (newline included), and stops at the first line that does not
// parse. A final line without its newline is the crash window of an
// append and is never yielded, even when its bytes happen to parse. A
// missing file is an empty stream.
func scanStream(path string, yield func(sl streamLine, raw []byte)) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		raw, err := r.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			return nil // anything read is a torn tail
		}
		if err != nil {
			return err
		}
		var sl streamLine
		if json.Unmarshal(raw, &sl) != nil {
			return nil // torn or corrupt line: treat the rest as truncated
		}
		yield(sl, raw)
	}
}

// drop removes a run's stream file (closing its cached handle).
func (d *Disk) drop(id, file string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), file)
	d.closeHandleLocked(path)
	err := os.Remove(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// closeHandleLocked evicts one cached append handle. Caller holds d.mu.
//
//ealb:locked(mu)
func (d *Disk) closeHandleLocked(path string) {
	if f, ok := d.handles[path]; ok {
		f.Close()
		delete(d.handles, path)
	}
}

// AppendInterval appends one interval line to a cell's stream.
func (d *Disk) AppendInterval(id string, cell int, line []byte) error {
	return d.append(id, "intervals.ndjson", cell, line)
}

// Intervals returns a cell's interval lines.
func (d *Disk) Intervals(id string, cell int) ([][]byte, error) {
	return d.readStream(id, "intervals.ndjson", cell)
}

// DropIntervals discards the run's interval streams.
func (d *Disk) DropIntervals(id string) error { return d.drop(id, "intervals.ndjson") }

// AppendTrace appends one decision-event line to a cell's trace.
func (d *Disk) AppendTrace(id string, cell int, line []byte) error {
	return d.append(id, "trace.ndjson", cell, line)
}

// Trace returns a cell's trace lines.
func (d *Disk) Trace(id string, cell int) ([][]byte, error) {
	return d.readStream(id, "trace.ndjson", cell)
}

// TruncateIntervals rewrites the interval stream keeping only cells
// keep accepts.
func (d *Disk) TruncateIntervals(id string, keep func(cell int) bool) error {
	return d.truncateStream(id, "intervals.ndjson", keep)
}

// TruncateTrace rewrites the trace keeping only cells keep accepts.
func (d *Disk) TruncateTrace(id string, keep func(cell int) bool) error {
	return d.truncateStream(id, "trace.ndjson", keep)
}

// truncateStream rewrites a stream file keeping only cells keep accepts.
func (d *Disk) truncateStream(id, file string, keep func(cell int) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), file)
	d.closeHandleLocked(path)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	var kept bytes.Buffer
	err := scanStream(path, func(sl streamLine, raw []byte) {
		if keep(sl.Cell) {
			kept.Write(raw)
		}
	})
	if err != nil {
		return err
	}
	return atomicWrite(path, kept.Bytes())
}

// PutCell appends a completed cell checkpoint.
func (d *Disk) PutCell(id string, c CellResult) error {
	return d.append(id, "cells.ndjson", c.Cell, c.Result)
}

// Cells returns the run's checkpoints. A cell checkpointed twice (a
// resumed run re-running a cell whose checkpoint line was torn) keeps
// the latest line.
func (d *Disk) Cells(id string) ([]CellResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	byCell := make(map[int]CellResult)
	err := scanStream(filepath.Join(d.runDir(id), "cells.ndjson"), func(sl streamLine, _ []byte) {
		byCell[sl.Cell] = CellResult{Cell: sl.Cell, Result: []byte(sl.Line)}
	})
	if err != nil {
		return nil, err
	}
	out := make([]CellResult, 0, len(byCell))
	//ealb:allow-nondet iteration order erased by the cell sort below
	for _, c := range byCell {
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cell < out[j].Cell })
	return out, nil
}

// DropCells discards the run's checkpoints.
func (d *Disk) DropCells(id string) error { return d.drop(id, "cells.ndjson") }

// Claim acquires or renews the run's lease for owner.
func (d *Disk) Claim(id, owner string, ttl time.Duration) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), "lease.json")
	var l lease
	if raw, err := os.ReadFile(path); err == nil {
		// A corrupt lease file counts as no lease.
		_ = json.Unmarshal(raw, &l)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return false, err
	}
	now := time.Now()
	if !l.grants(owner, now) {
		return false, nil
	}
	if err := os.MkdirAll(d.runDir(id), 0o755); err != nil {
		return false, err
	}
	raw, err := json.Marshal(lease{Owner: owner, Expires: now.Add(ttl)})
	if err != nil {
		return false, err
	}
	if err := atomicWrite(path, raw); err != nil {
		return false, err
	}
	return true, nil
}

// Release drops the run's lease if owner holds it.
func (d *Disk) Release(id, owner string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	path := filepath.Join(d.runDir(id), "lease.json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var l lease
	if err := json.Unmarshal(raw, &l); err == nil && l.Owner != owner {
		return nil
	}
	err = os.Remove(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// Close closes every cached stream handle.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	//ealb:allow-nondet handle close order is irrelevant
	for path, f := range d.handles {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(d.handles, path)
	}
	return first
}

// atomicWrite writes data to path via a temp file + rename so readers
// never observe a half-written file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
