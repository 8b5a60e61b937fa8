package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"ealb/internal/engine"
	"ealb/internal/store"
)

// Recover reloads the store's runs into the service: terminal runs
// become read-only history (results and trace streams stay servable),
// and interrupted runs — queued or running when their process died —
// are claimed and re-executed from their cell checkpoints. Determinism
// makes the resumed result byte-identical to an uninterrupted run: a
// checkpointed cell's result merges in verbatim, and an incomplete cell
// re-derives every random stream from its own recorded seed.
//
// Call Recover after NewWith and before serving traffic. Runs whose
// lease another replica holds are registered for read access but not
// executed; their streams serve the lines the shared store holds.
//
// A done run's recorded result is validated here, once, whatever the
// store (checkResult's store.Valid); the disk store cuts the result out
// of its record without scanning it. A result that fails is reported on
// its run. Recover returns on the first store read error; individual
// corrupt records — a record that does not decode (empty or torn by a
// power loss), or a spec that does not load — are skipped with a log
// line instead, and their IDs stay used.
func (s *Server) Recover(ctx context.Context) error {
	recs, err := s.store.ListRuns()
	var corrupt store.CorruptRecords
	if errors.As(err, &corrupt) {
		for _, c := range corrupt {
			if s.logger != nil {
				s.logger.Error("skipping run whose record does not decode", "run", c.ID, "error", c.Err)
			}
		}
	} else if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.recoverRun(rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *Server) recoverRun(rec store.Record) error {
	var spec engine.SweepSpec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		if s.logger != nil {
			s.logger.Error("skipping run with corrupt spec", "run", rec.ID, "error", err)
		}
		return nil
	}
	// A recorded spec is already normalized, and normalized specs
	// re-expand to identical cells — the determinism contract resume
	// rests on.
	ex, err := spec.Expand()
	if err != nil {
		if s.logger != nil {
			s.logger.Error("skipping run whose spec no longer expands", "run", rec.ID, "error", err)
		}
		return nil
	}
	// Answers present the re-expanded value, as a fresh submission's do;
	// a sweep's bytes share the record's when they are the same.
	var presented []byte
	if rec.Single {
		presented, err = json.Marshal(ex.Cells()[0])
	} else if presented, err = json.Marshal(ex.Spec()); bytes.Equal(presented, rec.Spec) {
		presented = rec.Spec
	}
	if err != nil {
		if s.logger != nil {
			s.logger.Error("skipping run whose spec does not encode", "run", rec.ID, "error", err)
		}
		return nil
	}
	run := &Run{
		ID:        rec.ID,
		Status:    rec.Status,
		Error:     rec.Error,
		Created:   rec.Created,
		Started:   rec.Started,
		Finished:  rec.Finished,
		seq:       rec.Seq,
		tenant:    rec.Tenant,
		idemKey:   rec.IdemKey,
		specJSON:  rec.Spec,
		presented: presented,
		expanded:  ex,
		single:    rec.Single,
	}
	kind := ex.Spec().Kind
	streaming := kind == engine.KindCluster || kind == engine.KindFarm
	traced := streaming && ex.Cells()[0].Trace

	// An interrupted run — queued or running when its process died — is
	// claimed for resumption: a replica restarted under the same owner
	// reclaims its own runs immediately, while a rival's live lease means
	// that replica is (still) executing the run.
	claimed := false
	if !terminal(rec.Status) {
		if claimed, err = s.store.Claim(rec.ID, s.owner, s.leaseTTL); err != nil {
			return err
		}
	}
	if !claimed {
		// Read-only: released tails route interval readers to the recorded
		// result or the store, and trace readers to the store. A rival's
		// run streams what it has appended to the shared store so far. A
		// done run serves its recorded bytes as they are, once they are
		// known to load; a result that does not is reported, not dropped.
		if rec.Status == StatusDone {
			if at, err := checkResult(rec.Result, rec.Single, streaming, len(ex.Cells())); err != nil {
				run.Error = "recorded result unreadable: " + err.Error()
				if s.logger != nil {
					s.logger.Error("recorded result unreadable", "run", rec.ID, "error", err)
				}
			} else {
				run.result, run.statsAt = rec.Result, at
			}
		}
		if streaming {
			run.tail = releasedTail(len(ex.Cells()))
		}
		if traced {
			run.traceTail = releasedTail(len(ex.Cells()))
		}
		s.register(run, false)
		if !terminal(rec.Status) && s.logger != nil {
			s.logger.Info("run leased elsewhere; not resuming", "run", rec.ID)
		}
		return nil
	}

	cells, err := s.store.Cells(rec.ID)
	if err != nil {
		return err
	}
	resume := make(map[int]engine.Result, len(cells))
	for _, c := range cells {
		if c.Cell < 0 || c.Cell >= len(ex.Cells()) {
			if s.logger != nil {
				s.logger.Error("skipping checkpoint of a cell the run does not have", "run", rec.ID, "cell", c.Cell)
			}
			continue
		}
		var res engine.Result
		if err := json.Unmarshal(c.Result, &res); err != nil {
			continue // torn checkpoint line: just re-run the cell
		}
		resume[c.Cell] = res
	}
	isCheckpointed := func(cell int) bool {
		_, ok := resume[cell]
		return ok
	}
	// Incomplete cells re-run from scratch; their partial streams must
	// go first or the re-run would append duplicates after them.
	if err := s.store.TruncateIntervals(rec.ID, isCheckpointed); err != nil {
		return err
	}
	if err := s.store.TruncateTrace(rec.ID, isCheckpointed); err != nil {
		return err
	}
	// Checkpointed cells never re-observe: seed their tails with the
	// stored lines so live readers get them as streamed the first time.
	seed := func(read func(id string, cell int) ([][]byte, error)) *tail {
		t := newTail(len(ex.Cells()))
		//ealb:allow-nondet per-cell seeding; cells are independent buffers
		for cell := range resume {
			if lines, err := read(rec.ID, cell); err == nil {
				t.append(cell, lines...)
			}
		}
		return t
	}
	if streaming {
		run.tail = seed(s.store.Intervals)
	}
	if traced {
		run.traceTail = seed(s.store.Trace)
	}
	run.resume = resume
	run.Status = StatusQueued

	rctx, cancel := context.WithCancel(context.Background())
	run.cancel = cancel
	s.register(run, true)
	if s.logger != nil {
		s.logger.Info("resuming interrupted run", "run", rec.ID,
			"cells", len(ex.Cells()), "checkpointed", len(resume))
	}
	go func() {
		defer s.wg.Done()
		defer cancel()
		s.execute(rctx, run)
	}()
	return nil
}

// register adds a recovered run to the in-memory view, in seq order
// whatever order runs arrive in (and to the idempotency index);
// executing additionally joins the drain group — the started goroutine
// owes one s.wg.Done.
func (s *Server) register(run *Run, executing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if executing {
		s.wg.Add(1)
	}
	s.addLocked(run)
	if run.idemKey != "" {
		s.idem[idemIndex(run.tenant, run.idemKey)] = run.ID
	}
}
