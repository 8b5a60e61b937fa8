package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// conformance runs the shared RunStore contract over an implementation.
// open is called to (re)open the store against the same backing state;
// for Memory the "backing state" is the single instance, so reopen
// returns it unchanged and the durability-specific assertions are gated
// on durable.
func conformance(t *testing.T, durable bool, open func(t *testing.T) RunStore) {
	t.Helper()

	t.Run("ids", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		id1, seq1, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		id2, seq2, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if id1 == id2 || seq2 <= seq1 {
			t.Fatalf("ids not advancing: %q/%d then %q/%d", id1, seq1, id2, seq2)
		}
		if want := FormatID(seq1); id1 != want {
			t.Fatalf("id %q does not match FormatID(%d)=%q", id1, seq1, want)
		}
	})

	t.Run("records", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		if _, ok, err := s.GetRun("run-999999"); err != nil || ok {
			t.Fatalf("missing run: ok=%v err=%v", ok, err)
		}
		var recs []Record
		for i := 0; i < 3; i++ {
			id, seq, err := s.NewID()
			if err != nil {
				t.Fatal(err)
			}
			rec := Record{
				ID:      id,
				Seq:     seq,
				Status:  "queued",
				Tenant:  "acme",
				IdemKey: fmt.Sprintf("key-%d", i),
				Spec:    json.RawMessage(`{"size":[4]}`),
				Created: time.Unix(int64(1000+i), 0).UTC(),
			}
			if err := s.PutRun(rec); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec)
		}
		got, ok, err := s.GetRun(recs[1].ID)
		if err != nil || !ok {
			t.Fatalf("GetRun: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(got, recs[1]) {
			t.Fatalf("record round-trip mismatch:\n got %+v\nwant %+v", got, recs[1])
		}
		// Upsert: a status change replaces the record.
		recs[0].Status = "failed"
		recs[0].Error = "boom"
		if err := s.PutRun(recs[0]); err != nil {
			t.Fatal(err)
		}
		list, err := s.ListRuns()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 3 {
			t.Fatalf("ListRuns returned %d records, want 3", len(list))
		}
		for i := 1; i < len(list); i++ {
			if list[i].Seq <= list[i-1].Seq {
				t.Fatalf("ListRuns not in seq order: %v", list)
			}
		}
		if list[0].Status != "failed" || list[0].Error != "boom" {
			t.Fatalf("upsert not reflected in list: %+v", list[0])
		}
	})

	t.Run("streams", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		id, _, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		for cell := 0; cell < 2; cell++ {
			for i := 0; i < 3; i++ {
				line := []byte(fmt.Sprintf(`{"cell":%d,"i":%d}`, cell, i))
				if err := s.AppendInterval(id, cell, line); err != nil {
					t.Fatal(err)
				}
				if err := s.AppendTrace(id, cell, line); err != nil {
					t.Fatal(err)
				}
			}
		}
		lines, err := s.Intervals(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(lines) != 3 || string(lines[2]) != `{"cell":1,"i":2}` {
			t.Fatalf("interval lines wrong: %q", lines)
		}
		if lines, err := s.Intervals(id, 7); err != nil || len(lines) != 0 {
			t.Fatalf("unknown cell: %q err=%v", lines, err)
		}
		// TruncateTrace keeps only cell 0.
		if err := s.TruncateTrace(id, func(cell int) bool { return cell == 0 }); err != nil {
			t.Fatal(err)
		}
		if lines, err := s.Trace(id, 0); err != nil || len(lines) != 3 {
			t.Fatalf("kept trace cell: %q err=%v", lines, err)
		}
		if lines, err := s.Trace(id, 1); err != nil || len(lines) != 0 {
			t.Fatalf("truncated trace cell survived: %q err=%v", lines, err)
		}
		// Appends after a truncate still land.
		if err := s.AppendTrace(id, 1, []byte(`{"again":true}`)); err != nil {
			t.Fatal(err)
		}
		if lines, err := s.Trace(id, 1); err != nil || len(lines) != 1 {
			t.Fatalf("append after truncate: %q err=%v", lines, err)
		}
		// TruncateIntervals keeps only cell 1.
		if err := s.TruncateIntervals(id, func(cell int) bool { return cell == 1 }); err != nil {
			t.Fatal(err)
		}
		if lines, err := s.Intervals(id, 0); err != nil || len(lines) != 0 {
			t.Fatalf("truncated interval cell survived: %q err=%v", lines, err)
		}
		if lines, err := s.Intervals(id, 1); err != nil || len(lines) != 3 {
			t.Fatalf("kept interval cell: %q err=%v", lines, err)
		}
		if err := s.DropIntervals(id); err != nil {
			t.Fatal(err)
		}
		if lines, err := s.Intervals(id, 1); err != nil || len(lines) != 0 {
			t.Fatalf("dropped intervals survived: %q err=%v", lines, err)
		}
	})

	t.Run("cells", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		id, _, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if cells, err := s.Cells(id); err != nil || len(cells) != 0 {
			t.Fatalf("fresh run has cells: %v err=%v", cells, err)
		}
		for _, cell := range []int{2, 0} {
			c := CellResult{Cell: cell, Result: json.RawMessage(fmt.Sprintf(`{"cell":%d}`, cell))}
			if err := s.PutCell(id, c); err != nil {
				t.Fatal(err)
			}
		}
		// Re-checkpointing a cell keeps the latest result.
		if err := s.PutCell(id, CellResult{Cell: 2, Result: json.RawMessage(`{"cell":2,"v":2}`)}); err != nil {
			t.Fatal(err)
		}
		cells, err := s.Cells(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 2 || cells[0].Cell != 0 || cells[1].Cell != 2 {
			t.Fatalf("cells wrong: %+v", cells)
		}
		if string(cells[1].Result) != `{"cell":2,"v":2}` {
			t.Fatalf("re-checkpoint not latest: %s", cells[1].Result)
		}
		if err := s.DropCells(id); err != nil {
			t.Fatal(err)
		}
		if cells, err := s.Cells(id); err != nil || len(cells) != 0 {
			t.Fatalf("dropped cells survived: %v err=%v", cells, err)
		}
	})

	t.Run("lease", func(t *testing.T) {
		s := open(t)
		defer s.Close()
		id, _, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Claim(id, "a", time.Hour); err != nil || !ok {
			t.Fatalf("first claim: ok=%v err=%v", ok, err)
		}
		if ok, err := s.Claim(id, "a", time.Hour); err != nil || !ok {
			t.Fatalf("same-owner renewal: ok=%v err=%v", ok, err)
		}
		if ok, err := s.Claim(id, "b", time.Hour); err != nil || ok {
			t.Fatalf("live lease stolen: ok=%v err=%v", ok, err)
		}
		// Expire by claiming with a negative ttl, then a rival succeeds.
		if ok, err := s.Claim(id, "a", -time.Second); err != nil || !ok {
			t.Fatalf("renewal with short ttl: ok=%v err=%v", ok, err)
		}
		if ok, err := s.Claim(id, "b", time.Hour); err != nil || !ok {
			t.Fatalf("expired lease not claimable: ok=%v err=%v", ok, err)
		}
		// Release by a non-owner is a no-op; by the owner frees the run.
		if err := s.Release(id, "a"); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Claim(id, "c", time.Hour); err != nil || ok {
			t.Fatalf("non-owner release freed lease: ok=%v err=%v", ok, err)
		}
		if err := s.Release(id, "b"); err != nil {
			t.Fatal(err)
		}
		if ok, err := s.Claim(id, "c", time.Hour); err != nil || !ok {
			t.Fatalf("released lease not claimable: ok=%v err=%v", ok, err)
		}
	})

	if !durable {
		return
	}

	t.Run("reopen", func(t *testing.T) {
		s := open(t)
		id1, seq1, err := s.NewID()
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{ID: id1, Seq: seq1, Status: "running", Created: time.Unix(42, 0).UTC()}
		if err := s.PutRun(rec); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendInterval(id1, 0, []byte(`{"i":0}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCell(id1, CellResult{Cell: 0, Result: json.RawMessage(`{"ok":true}`)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: the high-water mark, records, and streams survive.
		s2 := open(t)
		defer s2.Close()
		id2, seq2, err := s2.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if id2 == id1 || seq2 <= seq1 {
			t.Fatalf("restart reused run ID: %q/%d after %q/%d", id2, seq2, id1, seq1)
		}
		got, ok, err := s2.GetRun(id1)
		if err != nil || !ok {
			t.Fatalf("record lost across reopen: ok=%v err=%v", ok, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record changed across reopen:\n got %+v\nwant %+v", got, rec)
		}
		if lines, err := s2.Intervals(id1, 0); err != nil || len(lines) != 1 {
			t.Fatalf("intervals lost across reopen: %q err=%v", lines, err)
		}
		if cells, err := s2.Cells(id1); err != nil || len(cells) != 1 {
			t.Fatalf("cells lost across reopen: %v err=%v", cells, err)
		}
	})
}

func TestMemoryConformance(t *testing.T) {
	m := NewMemory()
	conformance(t, false, func(t *testing.T) RunStore { return m })
}

func TestDiskConformance(t *testing.T) {
	dir := t.TempDir()
	conformance(t, true, func(t *testing.T) RunStore {
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

// TestMemoryRetention pins the leak fix: once more than retain runs
// finish, the oldest runs' stream buffers are evicted while their
// records — and the newest runs' streams — survive.
func TestMemoryRetention(t *testing.T) {
	m := newMemoryRetain(2)
	var ids []string
	for i := 0; i < 4; i++ {
		id, seq, err := m.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AppendInterval(id, 0, []byte(`{"i":0}`)); err != nil {
			t.Fatal(err)
		}
		if err := m.AppendTrace(id, 0, []byte(`{"t":0}`)); err != nil {
			t.Fatal(err)
		}
		rec := Record{ID: id, Seq: seq, Status: "failed", Error: "x"}
		if err := m.PutRun(rec); err != nil {
			t.Fatal(err)
		}
		// Re-putting a terminal record must not re-enroll (or evict twice).
		if err := m.PutRun(rec); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		wantLines := 0
		if i >= 2 {
			wantLines = 1
		}
		iv, _ := m.Intervals(id, 0)
		tr, _ := m.Trace(id, 0)
		if len(iv) != wantLines || len(tr) != wantLines {
			t.Fatalf("run %d (%s): intervals=%d trace=%d, want %d each", i, id, len(iv), len(tr), wantLines)
		}
		if _, ok, _ := m.GetRun(id); !ok {
			t.Fatalf("run %d (%s): record evicted", i, id)
		}
	}
	if list, _ := m.ListRuns(); len(list) != 4 {
		t.Fatalf("records lost: %d", len(list))
	}
}

// TestDiskTornLine simulates the crash window: a partial final line in a
// stream file is treated as truncation, not an error.
func TestDiskTornLine(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := d.NewID()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendInterval(id, 0, []byte(`{"i":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCell(id, CellResult{Cell: 0, Result: json.RawMessage(`{"ok":true}`)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tails.
	for _, name := range []string{"intervals.ndjson", "cells.ndjson"} {
		path := filepath.Join(dir, "runs", id, name)
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(`{"cell":1,"line":{"trunc`)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if lines, err := d2.Intervals(id, 0); err != nil || len(lines) != 1 {
		t.Fatalf("torn intervals: %q err=%v", lines, err)
	}
	if cells, err := d2.Cells(id); err != nil || len(cells) != 1 || cells[0].Cell != 0 {
		t.Fatalf("torn cells: %v err=%v", cells, err)
	}
}

// TestDiskUnterminatedTail pins the one torn-tail rule: a final line
// without its newline is the crash window of an append, so every reader
// and a rewrite drop it even when its bytes parse.
func TestDiskUnterminatedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := d.NewID()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendInterval(id, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := d.PutCell(id, CellResult{Cell: 0, Result: json.RawMessage("1")}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"intervals.ndjson", "cells.ndjson"} {
		f, err := os.OpenFile(filepath.Join(dir, "runs", id, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(`{"cell":0,"line":2}`)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	intervals := func() string {
		lines, err := d2.Intervals(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s", lines)
	}
	if got := intervals(); got != "[1]" {
		t.Fatalf("Intervals = %s, want [1]", got)
	}
	if err := d2.TruncateIntervals(id, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := intervals(); got != "[1]" {
		t.Fatalf("after TruncateIntervals(keep all), Intervals = %s, want [1]", got)
	}
	if cells, err := d2.Cells(id); err != nil || len(cells) != 1 || string(cells[0].Result) != "1" {
		t.Fatalf("Cells = %v err=%v, want the one terminated checkpoint", cells, err)
	}
}

// FuzzDiskStream writes arbitrary bytes as a run's interval and
// checkpoint streams and checks every reader against a reference scan
// of the torn-tail rule: newline-terminated lines that parse, up to the
// first one that does not.
func FuzzDiskStream(f *testing.F) {
	torn := []byte("{\"cell\":0,\"line\":1}\n{\"cell\":0,\"line\":2}")
	f.Add(torn, torn)
	f.Add([]byte("{\"cell\":1,\"line\":{\"i\":0}}\n\n{\"cell\":1,\"line\":3}\n"), []byte("{\"cell\":2,\"line\":1}\n{\"cell\":2,\"line\":2}\n"))
	f.Fuzz(func(t *testing.T, intervals, cells []byte) {
		dir := t.TempDir()
		d, err := OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		id, _, err := d.NewID()
		if err != nil {
			t.Fatal(err)
		}
		intervalsPath := filepath.Join(dir, "runs", id, "intervals.ndjson")
		if err := os.WriteFile(intervalsPath, intervals, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "runs", id, "cells.ndjson"), cells, 0o644); err != nil {
			t.Fatal(err)
		}

		ref := refScan(intervals)
		read := func() [4][][]byte {
			var got [4][][]byte
			for c := range got {
				lines, err := d.Intervals(id, c)
				if err != nil {
					t.Fatal(err)
				}
				got[c] = lines
			}
			return got
		}
		before := read()
		for c := range before {
			var want [][]byte
			for _, sl := range ref {
				if sl.Cell == c {
					want = append(want, sl.Line)
				}
			}
			if !reflect.DeepEqual(before[c], want) {
				t.Fatalf("Intervals(%d) = %q, reference scan %q", c, before[c], want)
			}
		}

		keepAll := func(int) bool { return true }
		if err := d.TruncateIntervals(id, keepAll); err != nil {
			t.Fatal(err)
		}
		if after := read(); !reflect.DeepEqual(after, before) {
			t.Fatalf("TruncateIntervals(keep all) changed the lines: %q, was %q", after, before)
		}
		once, err := os.ReadFile(intervalsPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.TruncateIntervals(id, keepAll); err != nil {
			t.Fatal(err)
		}
		if twice, err := os.ReadFile(intervalsPath); err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("second TruncateIntervals is not a no-op: %q, was %q (err=%v)", twice, once, err)
		}

		last := map[int][]byte{}
		for _, sl := range refScan(cells) {
			last[sl.Cell] = sl.Line
		}
		got, err := d.Cells(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(last) {
			t.Fatalf("Cells returned %d checkpoints, reference scan %d", len(got), len(last))
		}
		for _, c := range got {
			if want, ok := last[c.Cell]; !ok || !bytes.Equal(c.Result, want) {
				t.Fatalf("Cells: cell %d = %q, reference scan's last line %q", c.Cell, c.Result, want)
			}
		}
	})
}

// refScan is the torn-tail rule written independently of the store:
// split on newlines, drop the unterminated remainder, and stop at the
// first line that does not parse.
func refScan(data []byte) []streamLine {
	var out []streamLine
	for {
		line, rest, ok := bytes.Cut(data, []byte("\n"))
		if !ok {
			return out
		}
		var sl streamLine
		if json.Unmarshal(line, &sl) != nil {
			return out
		}
		out = append(out, sl)
		data = rest
	}
}

// TestDiskConcurrentReservation pins the multi-replica ID guarantee: two
// Disk instances over one directory never hand out the same ID.
func TestDiskConcurrentReservation(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	seen := make(map[string]bool)
	for i := 0; i < 10; i++ {
		for _, s := range []RunStore{a, b} {
			id, _, err := s.NewID()
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("duplicate id %q across replicas", id)
			}
			seen[id] = true
		}
	}
}

// FuzzDecodeRecord pins decodeRecord to json.Unmarshal: a record
// json.Unmarshal decodes, decodeRecord decodes to the same Record; a
// record json.Unmarshal rejects, decodeRecord rejects too or returns a
// Result that is not valid JSON, which Recover's Valid then
// reports on the run.
//
//	go test ./internal/store -run '^$' -fuzz FuzzDecodeRecord -fuzztime 15s
func FuzzDecodeRecord(f *testing.F) {
	prechange, err := filepath.Glob("../serve/testdata/prechange/store/runs/*/run.json")
	if err != nil || len(prechange) == 0 {
		f.Fatalf("no prechange records (err=%v)", err)
	}
	for _, path := range prechange {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, rec := range []string{
		`{"id":"run-000001","seq":1,"status":"done","result":{"a":1},"error":"x"}`,
		`{"result":[1,"]"],"id":"run-000001"}`,
		`{"result":{"a":1}}`,
		`{"id":"a","result":1,"result":{"b":2}}`,            // duplicate: the last wins
		`{"id":"a","result":{"b":2},"result":1}`,            // duplicate, the other way
		`{"id":"a","Result":1,"result":2}`,                  // a case variant
		`{"id":"a","result":2,"RESULT":1}`,                  // a case variant after it
		`{"id":"a","result":1,"res\u0075lt":2}`,             // an escaped key
		`{"id":"a","result": {"b":2}}`,                      // whitespace before a value
		`{"id":"a","result": 1}`,                            // whitespace before a literal
		`{"id":"a","result":1 ,"seq":2}`,                    // whitespace after a literal
		`{"id":"a", "result":1}`,                            // whitespace before a key
		`{"id":"a","result":{"b":2}}  `,                     // trailing whitespace
		`{"id":"a","result":{"b":2}}x`,                      // trailing bytes
		`{"id":"a","result":{"b":2}}{}`,                     // a second value
		`{"id":"a","result":{"b":}}`,                        // invalid result, valid envelope
		`{"id":"a","result":[1,],"status":"done"}`,          // invalid result, first member cut
		`{"result":tru,"id":"a"}`,                           // invalid literal
		`{"result":1,}`,                                     // trailing comma
		`{"id":"a","result":,"seq":1}`,                      // no value
		`{"seq":"x","result":1}`,                            // wrong type
		`{"id":"a","result":{"kind":"clu,"created":"2026"}`, // result torn mid-string
		`{"id":"a\"","result":"\"}","created":"2026-01-02T03:04:05Z"}`,
		``, `{`, `{}`, `null`, `[]`, `"result"`,
	} {
		f.Add([]byte(rec))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := bytes.Clone(raw)
		got, err := decodeRecord(raw)
		if !bytes.Equal(raw, in) {
			t.Fatalf("decodeRecord changed its input")
		}
		var want Record
		if werr := json.Unmarshal(raw, &want); werr == nil {
			if err != nil {
				t.Fatalf("decodeRecord failed (%v) where json.Unmarshal decodes %q", err, raw)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decodeRecord = %+v, json.Unmarshal = %+v, for %q", got, want, raw)
			}
		} else if err == nil && json.Valid(got.Result) {
			t.Fatalf("decodeRecord decoded %q, which json.Unmarshal rejects (%v), to a valid result %q", raw, werr, got.Result)
		}
	})
}

// TestDecodeRecordCutsResult: a compact record — one PutRun writes, or
// one with its result first, alone or mid-record — decodes through the
// cut to the record json.Unmarshal gives, its Result a slice of the
// record's own bytes rather than a copy json.Unmarshal made.
func TestDecodeRecordCutsResult(t *testing.T) {
	created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	put, err := json.Marshal(Record{ID: FormatID(3), Seq: 3, Status: "done", Spec: json.RawMessage(`{"kind":"cluster"}`),
		Result: json.RawMessage(`{"cells":[{"Stats":[{"i":1}]}]}`), Created: created, Finished: &created})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{
		put,
		[]byte(`{"result":{"a":[1,"}"]},"id":"run-000001","seq":1}`),
		[]byte(`{"result":7}`),
		[]byte(`{"id":"run-000001","result":"x\\\"}","status":"done"}`),
	} {
		var want Record
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(raw)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeRecord(%s) = %+v, %v; want %+v", raw, got, err, want)
		}
		clear(raw)
		if bytes.ContainsFunc(got.Result, func(r rune) bool { return r != 0 }) {
			t.Errorf("Result %q of %s is not cut from the record", got.Result, want.ID)
		}
	}
}

// TestDiskListRunsReportsCorruptRecords: records that do not decode —
// empty, torn, or with a field of the wrong type — do not hide the
// others. ListRuns returns the rest with a CorruptRecords error naming
// each, GetRun fails on each, and the IDs stay reserved.
func TestDiskListRunsReportsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var want []string
	for range 5 {
		id, seq, err := d.NewID()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PutRun(Record{ID: id, Seq: seq, Status: "done", Result: json.RawMessage(`[1]`)}); err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	corrupt := map[string]string{want[1]: ``, want[2]: `{"id":"run-000003","seq":3,"res`, want[3]: `{"seq":"x"}`}
	for id, body := range corrupt {
		if err := os.WriteFile(filepath.Join(dir, "runs", id, "run.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := d.ListRuns()
	var bad CorruptRecords
	if !errors.As(err, &bad) {
		t.Fatalf("ListRuns error = %v, want CorruptRecords", err)
	}
	if len(recs) != 2 || recs[0].ID != want[0] || recs[1].ID != want[4] {
		t.Fatalf("ListRuns = %+v, want %s and %s", recs, want[0], want[4])
	}
	if len(bad) != 3 || bad[0].ID != want[1] || bad[1].ID != want[2] || bad[2].ID != want[3] {
		t.Fatalf("CorruptRecords = %v, want %s, %s and %s", bad, want[1], want[2], want[3])
	}
	for _, e := range bad {
		if _, _, err := d.GetRun(e.ID); err == nil || err.Error() != e.Error() || !strings.Contains(err.Error(), "corrupt record") {
			t.Errorf("GetRun(%s) error = %v, want %v", e.ID, err, e)
		}
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if id, _, err := d2.NewID(); err != nil || id != FormatID(6) {
		t.Fatalf("NewID after reopening = %s, %v; want %s", id, err, FormatID(6))
	}
}
