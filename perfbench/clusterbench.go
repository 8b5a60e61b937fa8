package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/workload"
)

// cluster-100k: the simulator's hot path at the largest scenario size
// the service accepts. With this churn rate all four interval phases do
// work, the working set is larger than L2, and serve, store and engine
// sit idle.
const (
	clusterSize = engine.MaxScenarioSize
	clusterMTBF = 14400
	clusterMTTR = 300
	// clusterWarm intervals run in each set-up, before timing.
	clusterWarm = 3
	// clusterChecked timed intervals are replayed and compared line by
	// line; every op is checked for errors and interval order.
	clusterChecked = 10
	// clusterSetups set-ups are timed per run; setup_s is their median.
	clusterSetups = 7
)

// clusterConfig derives the cluster's configuration from the seed.
func clusterConfig(seed uint64) cluster.Config {
	rng := rand.New(rand.NewPCG(seed, 5))
	cfg := cluster.DefaultConfig(clusterSize, workload.LowLoad(), rng.Uint64())
	cfg.MTBF, cfg.MTTR = clusterMTBF, clusterMTTR
	return cfg
}

// clusterRun is one built cluster and the first clusterWarm +
// clusterChecked lines of its interval stream.
type clusterRun struct {
	c     *cluster.Cluster
	lines [][]byte
}

func (r *clusterRun) keep(sts []cluster.IntervalStats) error {
	for _, st := range sts {
		if len(r.lines) == clusterWarm+clusterChecked {
			return nil
		}
		line, err := json.Marshal(st)
		if err != nil {
			return err
		}
		r.lines = append(r.lines, line)
	}
	return nil
}

// warm runs the set-up's warm-up intervals.
func (r *clusterRun) warm() error {
	sts, err := r.c.RunIntervals(context.Background(), clusterWarm)
	if err != nil {
		return err
	}
	return r.keep(sts)
}

// clusterWindow times one-interval ops on r for d. A non-nil log gets
// an interval span per op, and migrations collects each interval's
// migration count.
func clusterWindow(r *clusterRun, d time.Duration, log *spanLog) (windowStats, []int) {
	var migrations []int
	w := timeWindow(d, func(i int) (func() error, error) {
		var start time.Duration
		if log != nil {
			start = log.now()
		}
		sts, err := r.c.RunIntervals(context.Background(), 1)
		if log != nil {
			log.since(layerInterval, "interval", start, 0)
		}
		if err != nil {
			return nil, err
		}
		return func() error {
			if len(sts) != 1 || sts[0].Index != clusterWarm+i+1 {
				return fmt.Errorf("op %d returned %d intervals, want interval %d", i, len(sts), clusterWarm+i+1)
			}
			migrations = append(migrations, sts[0].Migrations)
			return r.keep(sts)
		}, nil
	})
	return w, migrations
}

// verifyCluster rebuilds c from cfg, replays the warm-up and checked
// intervals, and fails each timed op whose stream line differs. The
// set-up lines must match too. It returns the digest of the replayed
// lines, which depends on the seed alone.
func verifyCluster(c *cluster.Cluster, cfg cluster.Config, runs []*clusterRun, windows []*windowStats) ([32]byte, error) {
	if err := c.Rebuild(cfg); err != nil {
		return [32]byte{}, err
	}
	ref := &clusterRun{c: c}
	sts, err := c.RunIntervals(context.Background(), clusterWarm+clusterChecked)
	if err != nil {
		return [32]byte{}, err
	}
	if err := ref.keep(sts); err != nil {
		return [32]byte{}, err
	}
	for k, r := range runs {
		for j, line := range r.lines {
			if bytes.Equal(line, ref.lines[j]) {
				continue
			}
			if j < clusterWarm {
				return [32]byte{}, fmt.Errorf("set-up interval %d differs from a rebuilt replay", j+1)
			}
			windows[k].fail(j-clusterWarm, fmt.Errorf("interval %d differs from a rebuilt replay", j+1))
		}
	}
	return sha256.Sum256(bytes.Join(ref.lines, []byte("\n"))), nil
}

func runCluster100k(cfg config) (*outcome, error) {
	ccfg := clusterConfig(cfg.seed)
	o := &outcome{}
	work := fmt.Sprintf("1 interval x %d servers (MTBF %ds, MTTR %ds)", clusterSize, clusterMTBF, clusterMTTR)

	if !cfg.traced {
		var setups []time.Duration
		var rss []float64
		var run *clusterRun
		for range clusterSetups {
			run = nil // lets settle collect the previous cluster
			settle()
			t0 := time.Now()
			c, err := cluster.New(ccfg)
			if err != nil {
				return nil, err
			}
			run = &clusterRun{c: c}
			if err := run.warm(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0))
			mb, err := settledRSS()
			if err != nil {
				return nil, err
			}
			rss = append(rss, mb)
		}
		w, _ := clusterWindow(run, cfg.window, nil)
		digest, err := verifyCluster(run.c, ccfg, []*clusterRun{run}, []*windowStats{&w})
		if err != nil {
			return nil, err
		}
		w.account(o)
		endToEnd(o, setups, rss, w, work)
		o.notef("stream digest of the first %d intervals: %x", clusterWarm+clusterChecked, digest)
		return o, nil
	}

	t0 := time.Now()
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	newS := time.Since(t0).Seconds()
	plain := &clusterRun{c: c}
	if err := plain.warm(); err != nil {
		return nil, err
	}
	u, _ := clusterWindow(plain, cfg.window/2, nil)

	log := newSpanLog()
	tr := newPhaseTracer(log)
	tcfg := ccfg
	tcfg.Tracer = tr
	t0 = time.Now()
	if err := c.Rebuild(tcfg); err != nil {
		return nil, err
	}
	rebuild := time.Since(t0)
	traced := &clusterRun{c: c}
	if err := traced.warm(); err != nil {
		return nil, err
	}
	events0 := tr.eventCounts()
	t, migrations := clusterWindow(traced, cfg.window/2, log)
	events := tr.eventCounts()
	for k := range events {
		events[k] -= events0[k]
	}
	digest, err := verifyCluster(c, ccfg, []*clusterRun{plain, traced}, []*windowStats{&u, &t})
	if err != nil {
		return nil, err
	}
	u.account(o)
	t.account(o)
	perLayer(o, layerInputs{
		untraced: u, traced: t, log: log, migrations: migrations, events: events,
		newS: newS, rebuildMS: ms(rebuild),
	})
	o.notef("work per op: %s", work)
	o.notef("stream digest of the first %d intervals: %x", clusterWarm+clusterChecked, digest)
	return o, nil
}
