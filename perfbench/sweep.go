package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"ealb/internal/engine"
)

// serve-sweep: the service's write path. One op submits a 4-cell
// cluster sweep without waiting, tails every cell's interval stream
// live, then reads the final record. At 100 servers the simulation is a
// minority of the op, so HTTP, JSON, the live tails and the store's
// appends and checkpoints carry most of it.
const (
	sweepCells     = 4
	sweepSize      = 100
	sweepIntervals = 40
	// sweepWarmOps ops are part of each set-up, so the first timed op
	// finds connections, buffers and the store warm.
	sweepWarmOps = 20
	// sweepSetups set-ups are timed per run; setup_s is their median.
	sweepSetups = 7
)

// sweepInputs derives every op's sweep spec from the workload seed.
// Warm-up ops draw from their own stream, so the timed ops' inputs do
// not depend on how many set-ups ran.
type sweepInputs struct{ warm, ops *rand.Rand }

func newSweepInputs(seed uint64) *sweepInputs {
	return &sweepInputs{
		warm: rand.New(rand.NewPCG(seed, 1)),
		ops:  rand.New(rand.NewPCG(seed, 2)),
	}
}

func nextSweep(rng *rand.Rand) engine.SweepSpec {
	seeds := make([]uint64, sweepCells)
	for i := range seeds {
		seeds[i] = rng.Uint64N(1 << 32)
	}
	return clusterSweep(sweepSize, sweepIntervals, seeds)
}

// sweepOp performs one serve-sweep op on svc. Its check digests what the
// service returned into *digest, for the engine comparison after the
// window.
func sweepOp(svc *service, spec engine.SweepSpec, digest *[32]byte) (func() error, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	data, err := svc.client.do(http.MethodPost, "/v1/runs", body)
	if err != nil {
		return nil, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("submit answered without a run id: %s", data)
	}
	streams, err := svc.client.streamCells(sub.ID, sweepCells)
	if err != nil {
		return nil, err
	}
	record, err := svc.client.get("/v1/runs/" + sub.ID)
	if err != nil {
		return nil, err
	}
	return func() error {
		d, err := sweepDigest(record, streams)
		*digest = d
		return err
	}, nil
}

// bootSweep boots a service on a fresh in-memory store and warms it
// with sweepWarmOps ops.
func bootSweep(log *spanLog, in *sweepInputs) (*service, error) {
	svc, err := bootService(memoryStore, log)
	if err != nil {
		return nil, err
	}
	for range sweepWarmOps {
		var d [32]byte
		check, err := sweepOp(svc, nextSweep(in.warm), &d)
		if err == nil {
			err = check()
		}
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return svc, nil
}

// sweepWindow times serve-sweep ops on svc for d. It returns the window
// and each op's spec and digest.
func sweepWindow(svc *service, in *sweepInputs, d time.Duration) (windowStats, []engine.SweepSpec, [][32]byte) {
	var specs []engine.SweepSpec
	var digests [][32]byte
	w := timeWindow(d, func(i int) (func() error, error) {
		specs = append(specs, nextSweep(in.ops))
		digests = append(digests, [32]byte{})
		return sweepOp(svc, specs[i], &digests[i])
	})
	return w, specs, digests
}

// verifySweeps re-runs every successful op's spec directly on a
// one-worker pool, with no service, and fails each op whose record or
// streams differ from the engine's result. It returns each replay's
// time in ms.
func verifySweeps(w *windowStats, specs []engine.SweepSpec, digests [][32]byte, tr *phaseTracer) ([]float64, []engine.Result, error) {
	pool := engine.NewPool(1)
	var times []float64
	var results []engine.Result
	for i, r := range w.ops {
		if r.err != nil {
			continue
		}
		rp, err := engineRun(pool, specs[i], tr)
		if err != nil {
			return nil, nil, fmt.Errorf("engine replay of op %d: %w", i, err)
		}
		times = append(times, ms(rp.took))
		results = append(results, rp.cells...)
		if rp.digest != digests[i] {
			w.fail(i, fmt.Errorf("op %d (seeds %v): service record or streams differ from a direct engine run", i, specs[i].Seeds))
		}
	}
	return times, results, nil
}

func runServeSweep(cfg config) (*outcome, error) {
	in := newSweepInputs(cfg.seed)
	o := &outcome{}
	work := fmt.Sprintf("%d cells x %d intervals x %d servers = %d server-intervals",
		sweepCells, sweepIntervals, sweepSize, sweepCells*sweepIntervals*sweepSize)

	if !cfg.traced {
		var setups []time.Duration
		var rss []float64
		var svc *service
		for range sweepSetups {
			if svc != nil {
				if err := svc.close(); err != nil {
					return nil, err
				}
				svc = nil
			}
			settle()
			t0 := time.Now()
			var err error
			if svc, err = bootSweep(nil, in); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
			mb, err := settledRSS()
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
		}
		w, specs, digests := sweepWindow(svc, in, cfg.window)
		if err := svc.close(); err != nil {
			return nil, err
		}
		if _, _, err := verifySweeps(&w, specs, digests, nil); err != nil {
			return nil, err
		}
		w.account(o)
		endToEnd(o, setups, rss, w, work)
		return o, nil
	}

	// Traced run: half the window untraced, for the overhead baseline and
	// the runtime counters, then half through every timing wrapper.
	svc, err := bootSweep(nil, in)
	if err != nil {
		return nil, err
	}
	u, uSpecs, uDigests := sweepWindow(svc, in, cfg.window/2)
	if err := svc.close(); err != nil {
		return nil, err
	}
	log := newSpanLog()
	if svc, err = bootSweep(log, in); err != nil {
		return nil, err
	}
	before := svc.pool.Stats()
	t, tSpecs, tDigests := sweepWindow(svc, in, cfg.window/2)
	eng := engineSince(before, svc.pool.Stats())
	if err := svc.close(); err != nil {
		return nil, err
	}
	sweepMS, _, err := verifySweeps(&u, uSpecs, uDigests, nil)
	if err != nil {
		return nil, err
	}
	tr := newPhaseTracer(log)
	_, results, err := verifySweeps(&t, tSpecs, tDigests, tr)
	if err != nil {
		return nil, err
	}
	u.account(o)
	t.account(o)
	perLayer(o, layerInputs{
		untraced: u, traced: t, log: log, engine: eng, sweepMS: sweepMS,
		migrations: migrationsOf(results), events: tr.eventCounts(),
	})
	o.notef("work per op: %s", work)
	return o, nil
}
