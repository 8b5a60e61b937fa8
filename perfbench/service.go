package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"ealb/internal/engine"
	"ealb/internal/serve"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// service is one booted scenario service: its run store, a one-worker
// engine pool, the HTTP server on a loopback port, and a client for it.
type service struct {
	store  store.RunStore
	pool   *engine.Pool
	svc    *serve.Server
	http   *http.Server
	served chan error
	client *client
}

// bootService opens the run store, builds the service on it, recovers
// the store's runs, starts serving on a loopback port and waits for the
// first /healthz. A non-nil log adds the timing wrappers around the
// handler, the store and the client.
func bootService(open func() (store.RunStore, error), log *spanLog) (*service, error) {
	st, err := open()
	if err != nil {
		return nil, err
	}
	rs := st
	if log != nil {
		rs = &timedStore{inner: st, log: log}
	}
	s := &service{store: st, pool: engine.NewPool(1), served: make(chan error, 1)}
	s.svc = serve.NewWith(s.pool, serve.Options{Store: rs})
	if err := s.svc.Recover(context.Background()); err != nil {
		st.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	h := s.svc.Handler()
	if log != nil {
		h = timeHandler(h, log)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s.http = &http.Server{Handler: h}
	go func() { s.served <- s.http.Serve(ln) }()
	s.client = newClient("http://"+ln.Addr().String(), log)
	if _, err := s.client.get("/healthz"); err != nil {
		s.close()
		return nil, fmt.Errorf("first health check: %w", err)
	}
	return s, nil
}

// diskStore opens the disk store in dir.
func diskStore(dir string) func() (store.RunStore, error) {
	return func() (store.RunStore, error) { return store.OpenDisk(dir) }
}

// memoryStore makes a fresh in-memory store.
func memoryStore() (store.RunStore, error) { return store.NewMemory(), nil }

// close drains the service, stops its server and closes the store.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.svc.Shutdown(ctx), s.http.Shutdown(ctx)}
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	s.client.http.CloseIdleConnections()
	errs = append(errs, s.store.Close())
	return errors.Join(errs...)
}

// client is the benchmark's one closed-loop HTTP client.
type client struct {
	base string
	http *http.Client
	log  *spanLog
}

func newClient(base string, log *spanLog) *client {
	// Enough idle connections for a sweep's live streams plus its
	// submit and get, so every op reuses warm connections.
	tr := &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}, log: log}
}

// do sends one request and reads the whole response body. A reply
// other than 2xx is an error.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	var start time.Duration
	if c.log != nil {
		start = c.log.now()
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.log != nil {
		c.log.since(layerHTTP, method, start, len(data))
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) get(path string) ([]byte, error) { return c.do(http.MethodGet, path, nil) }

// streamCells reads the NDJSON interval stream of every cell of a run,
// all at once, each on its own connection. The streams tail the run
// live and end when it finishes.
func (c *client) streamCells(id string, cells int) ([][]byte, error) {
	out := make([][]byte, cells)
	errs := make([]error, cells)
	var wg sync.WaitGroup
	for cell := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[cell], errs[cell] = c.get(fmt.Sprintf("/v1/runs/%s/intervals?cell=%d", id, cell))
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// sweepDigest summarises a finished sweep as the service presented it:
// the record's cell results and every cell's interval stream.
func sweepDigest(record []byte, streams [][]byte) ([32]byte, error) {
	var rec struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Sweep  *struct {
			Cells json.RawMessage `json:"cells"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(record, &rec); err != nil {
		return [32]byte{}, fmt.Errorf("decoding run record: %w", err)
	}
	if rec.Status != serve.StatusDone || rec.Sweep == nil {
		return [32]byte{}, fmt.Errorf("run is %s, not done with a sweep result: %s", rec.Status, rec.Error)
	}
	var cells bytes.Buffer
	if err := json.Compact(&cells, rec.Sweep.Cells); err != nil {
		return [32]byte{}, err
	}
	h := sha256.New()
	h.Write(cells.Bytes())
	for _, s := range streams {
		h.Write(s)
	}
	return [32]byte(h.Sum(nil)), nil
}

// replay is one direct engine run of a sweep spec.
type replay struct {
	// digest is what sweepDigest gives for the service's presentation
	// of the same run.
	digest [32]byte
	cells  []engine.Result
	// took is the time the engine took, without the digest.
	took time.Duration
}

// engineRun runs a sweep spec directly on a pool, with no service.
// Untraced, it passes no hooks. A non-nil tracer
// receives every cell's phases and events, and the end of every
// interval but each cell's first is logged as an interval span.
func engineRun(pool *engine.Pool, spec engine.SweepSpec, tr *phaseTracer) (replay, error) {
	ex, err := spec.Expand()
	if err != nil {
		return replay{}, err
	}
	var hooks engine.RunHooks
	if tr != nil {
		last := make([]time.Duration, len(ex.Cells()))
		var mu sync.Mutex
		hooks.Observe = func(cell int, _ any) {
			mu.Lock()
			defer mu.Unlock()
			if last[cell] != 0 {
				tr.log.since(layerInterval, "interval", last[cell], 0)
			}
			last[cell] = tr.log.now()
		}
		hooks.TracerFor = func(int) trace.Tracer { return tr }
	}
	t0 := time.Now()
	res, err := pool.RunExpandedHooked(context.Background(), ex, hooks)
	took := time.Since(t0)
	if err != nil {
		return replay{}, err
	}
	cells, err := json.Marshal(res.Cells)
	if err != nil {
		return replay{}, err
	}
	h := sha256.New()
	h.Write(cells)
	for _, c := range res.Cells {
		if c.Cluster == nil {
			return replay{}, errors.New("sweep cell has no cluster run")
		}
		for _, st := range c.Cluster.Stats {
			line, err := json.Marshal(st)
			if err != nil {
				return replay{}, err
			}
			h.Write(line)
			h.Write([]byte{'\n'})
		}
	}
	return replay{digest: [32]byte(h.Sum(nil)), cells: res.Cells, took: took}, nil
}

// clusterSweep is the sweep spec of one service op: size-server cells
// in the low band, one per seed, each running intervals intervals.
func clusterSweep(size, intervals int, seeds []uint64) engine.SweepSpec {
	return engine.SweepSpec{
		Scenario: engine.Scenario{Kind: engine.KindCluster, Size: size, Band: "low", Intervals: intervals},
		Seeds:    seeds,
	}
}

// migrationsOf lists the migration count of every interval of the
// results' cluster runs.
func migrationsOf(results []engine.Result) []int {
	var out []int
	for _, r := range results {
		if r.Cluster == nil {
			continue
		}
		for _, st := range r.Cluster.Stats {
			out = append(out, st.Migrations)
		}
	}
	return out
}
