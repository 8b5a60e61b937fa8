package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// A finished run's result lives in one form only: the compact JSON bytes
// of its store record, an engine.Result for a single run or an
// engine.SweepResult for a sweep. The Observe hook's NDJSON line is the
// only encoding of an interval: checkpoints and records splice those
// lines in, and a done run's interval stream slices them back out of the
// record with the store's JSON walker (store.SkipValue, store.Field).
// FuzzResultSplice pins every splice to json.Marshal of the typed value,
// byte for byte.

// cellJSON returns the bytes json.Marshal(res) gives, with the cell's
// interval stats spliced in from lines — the cell's NDJSON lines, one
// per stat, in order — rather than encoded a second time.
func cellJSON(res engine.Result, lines [][]byte) ([]byte, error) {
	n, isNil := 0, false
	switch {
	case res.Cluster != nil:
		cr := *res.Cluster
		n, isNil = len(cr.Stats), cr.Stats == nil
		cr.Stats = nil
		res.Cluster = &cr
	case res.Farm != nil:
		fr := *res.Farm
		n, isNil = len(fr.Stats), fr.Stats == nil
		fr.Stats = nil
		res.Farm = &fr
	default:
		return json.Marshal(res) // a policy cell has no interval stats
	}
	if len(lines) != n {
		return nil, fmt.Errorf("serve: cell has %d interval lines for %d stats", len(lines), n)
	}
	raw, err := json.Marshal(res)
	if err != nil || isNil {
		return raw, err
	}
	start := statsField(raw, 0)
	end := store.SkipValue(raw, start)
	if end < 0 {
		return nil, errors.New("serve: encoded cell has no Stats field")
	}
	size := len(raw) + len(lines)
	for _, ln := range lines {
		size += len(ln)
	}
	out := append(make([]byte, 0, size), raw[:start]...)
	return append(appendArray(out, lines), raw[end:]...), nil
}

// sweepJSON returns the bytes json.Marshal gives for the
// engine.SweepResult of spec and aggs whose cells encode as cells: the
// result is marshalled with no cells and the cells are spliced into its
// "cells" value, so the layout stays the engine's.
func sweepJSON(spec engine.SweepSpec, cells [][]byte, aggs []engine.Aggregate) ([]byte, error) {
	raw, err := json.Marshal(engine.SweepResult{Spec: spec, Aggregates: aggs})
	if err != nil {
		return nil, err
	}
	start := store.Field(raw, 0, "cells")
	end := store.SkipValue(raw, start)
	if end < 0 {
		return nil, errors.New("serve: encoded sweep has no cells field")
	}
	size := len(raw) + len(cells)
	for _, c := range cells {
		size += len(c)
	}
	out := append(make([]byte, 0, size), raw[:start]...)
	return append(appendArray(out, cells), raw[end:]...), nil
}

// resultJSON assembles a done run's recorded result from the checkpoint
// bytes of its cells — a single run's result is its one cell's bytes, a
// sweep's is spliced with its aggregates into the SweepResult — and,
// for a cluster or farm run, the offsets of its cells' Stats arrays.
func resultJSON(run *Run, cells [][]byte, aggs []engine.Aggregate) (result []byte, statsAt []int, err error) {
	for i, c := range cells {
		if c == nil {
			return nil, nil, fmt.Errorf("serve: cell %d has no encoded result", i)
		}
	}
	switch {
	case run.single:
		result = cells[0]
	default:
		if result, err = sweepJSON(run.expanded.Spec(), cells, aggs); err != nil {
			return nil, nil, err
		}
	}
	if run.tail != nil {
		if statsAt, err = statsOffsets(result, run.single, len(cells)); err != nil {
			return nil, nil, err
		}
	}
	return result, statsAt, nil
}

// appendArray appends the JSON array of the encoded values vals.
func appendArray(dst []byte, vals [][]byte) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, v...)
	}
	return append(dst, ']')
}

// checkResult checks a recorded result Recover read back and returns
// the offsets a streaming run's interval streams walk from (nil for
// other runs). The result must be valid JSON (store.Valid, which
// accepts what json.Valid does), and each cell of a streaming run must
// hold a Stats array.
func checkResult(result []byte, single, streaming bool, cells int) ([]int, error) {
	if !store.Valid(result) {
		return nil, errors.New("not valid JSON")
	}
	if !streaming {
		return nil, nil
	}
	return statsOffsets(result, single, cells)
}

// statsOffsets returns, for each of the cells of a recorded result, the
// offset of its Stats value — an array, or null for no intervals — in
// one walk over the result. It fails naming the first cell whose Stats
// it cannot find. A done run keeps the offsets, so its streams walk only
// the lines they send.
func statsOffsets(result []byte, single bool, cells int) ([]int, error) {
	at := make([]int, cells)
	cell := 0 // offset of the current cell's engine.Result
	if !single {
		if cell = store.Field(result, 0, "cells"); cell >= 0 && result[cell] == '[' {
			cell++
		} else {
			cell = -1
		}
	}
	for i := range at {
		if i > 0 {
			if end := store.SkipValue(result, cell); end >= 0 && end < len(result) && result[end] == ',' {
				cell = end + 1
			} else {
				cell = -1
			}
		}
		at[i] = statsField(result, cell)
		if at[i] < 0 || (result[at[i]] != '[' && result[at[i]] != 'n') {
			return nil, fmt.Errorf("cell %d has no interval stats", i)
		}
	}
	return at, nil
}

// statsField returns the offset of the Stats value of the cluster or
// farm run in the engine.Result encoded at b[i], or -1 when there is
// none.
func statsField(b []byte, i int) int {
	return store.Field(b, store.Field(b, i, "cluster", "farm"), "Stats")
}

// elements returns the values of the array starting at b[i], each a
// slice of b; a null there holds none. ok is false when b[i:] starts
// with neither a whole array nor null (or i is -1).
func elements(b []byte, i int) (vals [][]byte, ok bool) {
	if i < 0 || i >= len(b) {
		return nil, false
	}
	if b[i] == 'n' {
		return nil, bytes.HasPrefix(b[i:], []byte("null"))
	}
	if b[i] != '[' {
		return nil, false
	}
	for i++; i < len(b); {
		if b[i] == ']' {
			return vals, true
		}
		end := store.SkipValue(b, i)
		if end <= i {
			return nil, false
		}
		vals = append(vals, b[i:end])
		if i = end; i < len(b) && b[i] == ',' {
			i++
		}
	}
	return nil, false
}
