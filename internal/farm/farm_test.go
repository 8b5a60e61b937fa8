package farm

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"ealb/internal/trace"
	"ealb/internal/workload"
)

// testRunner is a minimal concurrent Runner: every job on its own
// goroutine behind a worker semaphore, results landing wherever fn puts
// them. It mirrors how engine.Pool fans the advance phase out without
// importing the engine (which imports this package).
type testRunner struct{ workers int }

func (r testRunner) Map(ctx context.Context, n int, fn func(i int) error) error {
	sem := make(chan struct{}, r.workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			errs[i] = fn(i)
			<-sem
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// admitCounter is a test tracer that counts each cluster's successful
// admissions: one OK admit event per application a cluster took in.
// A traced farm advances its clusters serially, whatever its runner.
type admitCounter struct {
	mu     sync.Mutex
	counts []int
}

func countAdmits(cfg *Config) *admitCounter {
	a := &admitCounter{counts: make([]int, cfg.Clusters)}
	cfg.Tracer = a
	return a
}

func (a *admitCounter) Event(e trace.Event) {
	if e.Kind == trace.KindAdmit && e.OK {
		a.mu.Lock()
		a.counts[e.Cluster]++
		a.mu.Unlock()
	}
}

func (a *admitCounter) Phase(trace.Phase, time.Duration) {}

func (a *admitCounter) total() int {
	n := 0
	for _, c := range a.counts {
		n += c
	}
	return n
}

func mustFarm(t *testing.T, cfg Config) *Farm {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSerialMatchesParallelRunner is the farm's determinism contract:
// the advance phase parallelized across workers must be byte-identical
// to the serial loop, for every dispatch policy.
func TestSerialMatchesParallelRunner(t *testing.T) {
	for _, dispatch := range []DispatchPolicy{DispatchRoundRobin, DispatchLeastLoaded, DispatchEnergyHeadroom} {
		cfg := DefaultConfig(3, 60, workload.LowLoad(), 7)
		cfg.Dispatch = dispatch

		serial, err := mustFarm(t, cfg).RunIntervals(context.Background(), 12, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			parallel, err := mustFarm(t, cfg).RunIntervals(context.Background(), 12, testRunner{workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("dispatch %v: %d-worker run differs from serial", dispatch, workers)
			}
			sj, _ := json.Marshal(serial)
			pj, _ := json.Marshal(parallel)
			if string(sj) != string(pj) {
				t.Fatalf("dispatch %v: %d-worker JSON differs from serial", dispatch, workers)
			}
		}
	}
}

// TestRebuildMatchesNew: rebuilding a farm in place — growing from
// fewer clusters, shrinking from more, and changing every axis — must
// be bit-identical to fresh construction.
func TestRebuildMatchesNew(t *testing.T) {
	target := DefaultConfig(3, 50, workload.HighLoad(), 21)
	target.Dispatch = DispatchEnergyHeadroom
	want, err := mustFarm(t, target).RunIntervals(context.Background(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	for name, prior := range map[string]Config{
		"grow":   DefaultConfig(2, 80, workload.LowLoad(), 3),
		"shrink": DefaultConfig(5, 40, workload.LowLoad(), 3),
	} {
		f := mustFarm(t, prior)
		// Dirty the prior state so the rebuild starts from mid-run wreckage.
		if _, err := f.RunIntervals(context.Background(), 3, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Rebuild(target); err != nil {
			t.Fatal(err)
		}
		got, err := f.RunIntervals(context.Background(), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s rebuild diverged from fresh construction", name)
		}
	}
}

// TestRoundRobinSpreadsArrivals: with no rejections, the cyclic
// dispatcher's per-cluster admission counts may differ by at most one.
func TestRoundRobinSpreadsArrivals(t *testing.T) {
	cfg := DefaultConfig(4, 50, workload.LowLoad(), 5)
	cfg.ArrivalRate = 6
	admits := countAdmits(&cfg)
	f := mustFarm(t, cfg)
	sts, err := f.RunIntervals(context.Background(), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched, rejected int
	for _, st := range sts {
		dispatched += st.Dispatched
		rejected += st.Rejected
	}
	if rejected != 0 {
		t.Fatalf("low-load farm rejected %d arrivals", rejected)
	}
	if dispatched == 0 {
		t.Fatal("no arrivals dispatched")
	}
	if admits.total() != dispatched {
		t.Fatalf("dispatched %d but clusters admitted %d", dispatched, admits.total())
	}
	min, max := int(^uint(0)>>1), 0
	for _, n := range admits.counts {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("round-robin admissions spread %d..%d", min, max)
	}
}

// TestDispatchAccountingConsistent: the interval stream's dispatch
// counts and the per-cluster admission counters must agree.
func TestDispatchAccountingConsistent(t *testing.T) {
	cfg := DefaultConfig(2, 60, workload.HighLoad(), 9)
	cfg.Dispatch = DispatchLeastLoaded
	cfg.ArrivalRate = 4
	admits := countAdmits(&cfg)
	f := mustFarm(t, cfg)
	sts, err := f.RunIntervals(context.Background(), 15, nil)
	if err != nil {
		t.Fatal(err)
	}
	admitted := admits.total()
	var dispatched, rejected int
	for _, st := range sts {
		dispatched += st.Dispatched
		rejected += st.Rejected
	}
	if admitted != dispatched {
		t.Fatalf("dispatched %d but clusters admitted %d", dispatched, admitted)
	}
	if dispatched+rejected == 0 {
		t.Fatal("no arrivals reached the front-end")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(2, 40, workload.LowLoad(), 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no clusters":      func(c *Config) { c.Clusters = 0 },
		"negative rate":    func(c *Config) { c.ArrivalRate = -1 },
		"NaN rate":         func(c *Config) { c.ArrivalRate = math.NaN() },
		"infinite rate":    func(c *Config) { c.ArrivalRate = math.Inf(1) },
		"bad dispatch":     func(c *Config) { c.Dispatch = DispatchPolicy(42) },
		"bad cluster size": func(c *Config) { c.Cluster.Size = 1 },
	} {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config unexpectedly valid", name)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config unexpectedly built")
	}
	// New refuses a NaN rate with Validate's message rather than spin in
	// the front-end's Poisson draw.
	nan := good
	nan.ArrivalRate = math.NaN()
	if _, err := New(nan); err == nil || err.Error() != "farm: non-finite arrival rate NaN" {
		t.Errorf("New with a NaN arrival rate: %v", err)
	}
}

func TestParseDispatch(t *testing.T) {
	for spec, want := range map[string]DispatchPolicy{
		"round-robin":     DispatchRoundRobin,
		"rr":              DispatchRoundRobin,
		"":                DispatchRoundRobin,
		"Least-Loaded":    DispatchLeastLoaded,
		"energy-headroom": DispatchEnergyHeadroom,
		"headroom":        DispatchEnergyHeadroom,
	} {
		got, err := ParseDispatch(spec)
		if err != nil || got != want {
			t.Errorf("ParseDispatch(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseDispatch("sideways"); err == nil {
		t.Error("bad policy accepted")
	}
	for _, name := range DispatchPolicies() {
		p, err := ParseDispatch(name)
		if err != nil {
			t.Errorf("canonical name %q rejected: %v", name, err)
		}
		if p.String() != name {
			t.Errorf("round-trip %q -> %v", name, p)
		}
	}
}

// TestCancellation: a cancelled context stops the farm at the next
// boundary with the completed intervals.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := DefaultConfig(2, 40, workload.LowLoad(), 1)
	cfg.OnInterval = func(st IntervalStats) {
		if st.Index == 3 {
			cancel()
		}
	}
	f := mustFarm(t, cfg)
	out, err := f.RunIntervals(ctx, 1000, nil)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if len(out) < 3 || len(out) > 5 {
		t.Errorf("cancelled run completed %d intervals", len(out))
	}
}
