package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"ealb/internal/engine"
)

// serve-read: the service's read path. Before anything is timed, a store
// of finished sweeps is generated from the seed. Set-up boots the
// service on that store; one op is a read session. No simulation and no
// store write happens in the timed part, so a change that speeds up the
// write path but slows reads or recovery shows here.
const (
	readRuns      = 200
	readCells     = 2
	readSize      = 100
	readIntervals = 40
	readListLimit = 20
	// readSetups boots are timed per run; setup_s is their median.
	readSetups = 11
)

// readStore is the generated store: its directory, its run IDs in
// submission order, and the digest a direct engine run gives for each.
type readStore struct {
	Dir  string              `json:"dir"`
	IDs  []string            `json:"ids"`
	Want map[string][32]byte `json:"want"`
}

// generateReadStore submits readRuns 2-cell sweeps derived from seed to
// a service on a fresh store in dir, waiting for each, and computes the
// expected digest of every run with a direct engine run.
func generateReadStore(dir string, seed uint64) (*readStore, error) {
	svc, err := bootService(diskStore(dir), nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 4))
	rs := &readStore{Dir: dir, Want: make(map[string][32]byte)}
	pool := engine.NewPool(1)
	for range readRuns {
		seeds := make([]uint64, readCells)
		for i := range seeds {
			seeds[i] = rng.Uint64N(1 << 32)
		}
		spec := clusterSweep(readSize, readIntervals, seeds)
		body, err := json.Marshal(spec)
		if err != nil {
			svc.close()
			return nil, err
		}
		data, err := svc.client.do(http.MethodPost, "/v1/runs?wait=1", body)
		if err != nil {
			svc.close()
			return nil, fmt.Errorf("generating the store: %w", err)
		}
		var run struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &run); err != nil {
			svc.close()
			return nil, fmt.Errorf("generating the store: %w", err)
		}
		rp, err := engineRun(pool, spec, nil)
		if err != nil {
			svc.close()
			return nil, err
		}
		rs.Want[run.ID] = rp.digest
		rs.IDs = append(rs.IDs, run.ID)
	}
	return rs, svc.close()
}

// prepareReadStore generates the store in dir in a child process of
// this binary, so that nothing the generation allocated stays in the
// process whose set-up time and resident set are measured.
func prepareReadStore(dir string, seed uint64) (*readStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--generate-read-store", dir, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("generating the store: %w", err)
	}
	rs := &readStore{}
	if err := json.Unmarshal(out, rs); err != nil {
		return nil, fmt.Errorf("reading the generated store: %w", err)
	}
	if rs.Dir != dir || len(rs.IDs) != readRuns || len(rs.Want) != readRuns {
		return nil, fmt.Errorf("generated store has %d runs in %s, want %d in %s", len(rs.IDs), rs.Dir, readRuns, dir)
	}
	return rs, nil
}

// readOp performs one read session: list the newest runs, get one run
// chosen by rng, and stream both of its cells. Its check compares the
// list with the store's newest IDs and the run with its engine digest.
func readOp(svc *service, rs *readStore, rng *rand.Rand) (func() error, error) {
	list, err := svc.client.get(fmt.Sprintf("/v1/runs?limit=%d", readListLimit))
	if err != nil {
		return nil, err
	}
	id := rs.IDs[rng.IntN(len(rs.IDs))]
	record, err := svc.client.get("/v1/runs/" + id)
	if err != nil {
		return nil, err
	}
	streams, err := svc.client.streamCells(id, readCells)
	if err != nil {
		return nil, err
	}
	return func() error {
		var l struct {
			Runs []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(list, &l); err != nil {
			return fmt.Errorf("decoding run list: %w", err)
		}
		newest := rs.IDs[len(rs.IDs)-readListLimit:]
		if len(l.Runs) != len(newest) {
			return fmt.Errorf("list returned %d runs, want %d", len(l.Runs), len(newest))
		}
		for i, r := range l.Runs {
			if r.ID != newest[i] || r.Status != "done" {
				return fmt.Errorf("list entry %d is %s (%s), want %s (done)", i, r.ID, r.Status, newest[i])
			}
		}
		got, err := sweepDigest(record, streams)
		if err != nil {
			return fmt.Errorf("run %s: %w", id, err)
		}
		if got != rs.Want[id] {
			return fmt.Errorf("run %s: record or streams differ from a direct engine run", id)
		}
		return nil
	}, nil
}

func readWindow(svc *service, rs *readStore, rng *rand.Rand, d time.Duration) windowStats {
	return timeWindow(d, func(int) (func() error, error) { return readOp(svc, rs, rng) })
}

func runServeRead(cfg config) (*outcome, error) {
	rs, err := prepareReadStore(filepath.Join(cfg.workdir, "read-store"), cfg.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 3))
	o := &outcome{}
	work := fmt.Sprintf("list %d of %d runs, get 1 run, stream %d cells x %d intervals",
		readListLimit, readRuns, readCells, readIntervals)

	if !cfg.traced {
		var setups []time.Duration
		var rss []float64
		var svc *service
		for range readSetups {
			if svc != nil {
				if err := svc.close(); err != nil {
					return nil, err
				}
				svc = nil
			}
			settle()
			t0 := time.Now()
			if svc, err = bootService(diskStore(rs.Dir), nil); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
			mb, err := settledRSS()
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
		}
		w := readWindow(svc, rs, rng, cfg.window)
		if err := svc.close(); err != nil {
			return nil, err
		}
		w.account(o)
		endToEnd(o, setups, rss, w, work)
		return o, nil
	}

	svc, err := bootService(diskStore(rs.Dir), nil)
	if err != nil {
		return nil, err
	}
	u := readWindow(svc, rs, rng, cfg.window/2)
	if err := svc.close(); err != nil {
		return nil, err
	}
	log := newSpanLog()
	if svc, err = bootService(diskStore(rs.Dir), log); err != nil {
		return nil, err
	}
	before := svc.pool.Stats()
	t := readWindow(svc, rs, rng, cfg.window/2)
	eng := engineSince(before, svc.pool.Stats())
	if err := svc.close(); err != nil {
		return nil, err
	}
	u.account(o)
	t.account(o)
	perLayer(o, layerInputs{untraced: u, traced: t, log: log, engine: eng})
	o.notef("work per op: %s", work)
	return o, nil
}
