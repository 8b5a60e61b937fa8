package cluster

import (
	"testing"
	"unsafe"

	"ealb/internal/server"
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

// TestServerFootprint pins the flat server layout: a server value fits
// in three cache lines on 64-bit builds, and re-seeding a cluster in
// place allocates nothing per server, so a same-size Rebuild costs the
// same number of allocations at every size.
func TestServerFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if size := unsafe.Sizeof(server.Server{}); size > 192 {
			t.Errorf("server.Server is %d bytes, want at most 192", size)
		}
	} else {
		t.Logf("pointer size %d: the 64-bit size bound does not apply", unsafe.Sizeof(uintptr(0)))
	}
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
