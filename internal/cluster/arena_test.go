package cluster

import (
	"context"
	"testing"
	"time"
	"unsafe"

	"ealb/internal/server"
	"ealb/internal/trace"
	"ealb/internal/workload"
)

// TestArenaPointerStability: chunked growth must never move slots that
// were already handed out — the cluster holds app/VM pointers across the
// whole build.
func TestArenaPointerStability(t *testing.T) {
	var a arena[int]
	ptrs := make([]*int, 0, 3*arenaChunk)
	for i := 0; i < 3*arenaChunk; i++ {
		p := a.alloc()
		*p = i
		ptrs = append(ptrs, p)
	}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("slot %d clobbered by growth: got %d", i, *p)
		}
	}
	a.reset()
	// After reset the same storage is handed out again, in order.
	for i := 0; i < 3*arenaChunk; i++ {
		if p := a.alloc(); p != ptrs[i] {
			t.Fatalf("slot %d not recycled after reset", i)
		}
	}
}

// TestArenaResetAllocFree: a warm arena must serve a full reset/alloc
// cycle without allocating.
func TestArenaResetAllocFree(t *testing.T) {
	var a arena[int]
	for i := 0; i < 2*arenaChunk; i++ {
		a.alloc()
	}
	allocs := testing.AllocsPerRun(10, func() {
		a.reset()
		for i := 0; i < 2*arenaChunk; i++ {
			a.alloc()
		}
	})
	if allocs != 0 {
		t.Errorf("warm arena allocated %.1f times per cycle", allocs)
	}
}

// planPeek calls fn at the end of every plan phase, while the plan and
// its view are still populated.
type planPeek func()

func (planPeek) Event(trace.Event) {}

func (fn planPeek) Phase(p trace.Phase, _ time.Duration) {
	if p == trace.PhasePlan {
		fn()
	}
}

// TestFootprint pins the bytes the interval walks per app and per
// server on 64-bit builds, and checks that the leader's plan view keeps
// storage for no more servers than the largest single plan touched,
// not for every server some plan ever touched.
func TestFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if size := unsafe.Sizeof(server.App{}); size != 48 {
			t.Errorf("server.App is %d bytes, want 48", size)
		}
		if size := unsafe.Sizeof(server.Server{}); size != 152 {
			t.Errorf("server.Server is %d bytes, want 152", size)
		}
	} else {
		t.Logf("pointer size %d: the 64-bit sizes do not apply", unsafe.Sizeof(uintptr(0)))
	}

	cfg := DefaultConfig(1000, workload.LowLoad(), 1)
	var c *Cluster
	largest := 0
	cfg.Tracer = planPeek(func() { largest = max(largest, len(c.leader.touched)) })
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	if largest == 0 {
		t.Fatal("no plan touched a server; the test shows nothing")
	}
	if got := len(c.leader.viewApps); got > largest {
		t.Errorf("the plan view keeps %d app lists, but no plan touched more than %d servers", got, largest)
	}
}

// TestServerFootprint: re-seeding a cluster in place allocates nothing
// per server, so a same-size Rebuild costs the same number of
// allocations at every size. TestFootprint pins the server's size.
func TestServerFootprint(t *testing.T) {
	rebuildAllocs := func(size int) float64 {
		cfg := DefaultConfig(size, workload.LowLoad(), 1)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := c.Rebuild(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := rebuildAllocs(100), rebuildAllocs(1000)
	if small != large {
		t.Errorf("same-size Rebuild allocates %.0f times at 100 servers and %.0f at 1000", small, large)
	}
	t.Logf("same-size Rebuild: %.0f allocations at 100 servers, %.0f at 1000", small, large)
}

// TestNewAllocatesHostedListsOnce: a first build sizes each server's
// hosted list to its app count before placing anything, so a thousand
// more servers cost about a thousand more allocations, not the two or
// three per server that growing each list by doubling made.
func TestNewAllocatesHostedListsOnce(t *testing.T) {
	newAllocs := func(size int) float64 {
		cfg := DefaultConfig(size, workload.LowLoad(), 1)
		return testing.AllocsPerRun(3, func() {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := newAllocs(1000), newAllocs(2000)
	if perServer := (large - small) / 1000; perServer > 1.05 {
		t.Errorf("New allocates %.2f times per added server (%.0f at 1000 servers, %.0f at 2000); want one hosted list each", perServer, small, large)
	}
}
