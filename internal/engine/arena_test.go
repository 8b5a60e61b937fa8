package engine

import (
	"context"
	"encoding/json"
	"testing"

	"ealb/internal/workload"
)

// TestArenaReuseIsInvisible: running the same cluster cell repeatedly
// through a one-worker pool forces every cell after the first onto a
// rebuilt arena cluster, and each result — including the full interval
// stream — must be byte-identical to a fresh direct run.
func TestArenaReuseIsInvisible(t *testing.T) {
	direct, err := RunCluster(context.Background(), 80, workload.LowLoad(), 5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(1)
	scenarios := []Scenario{
		// A differently-shaped cell first, so the reference cell's arena
		// cluster is a rebuild from foreign state, not a fresh build.
		{Size: 120, Band: "high", Seed: SeedOf(9), Intervals: 6},
		{Size: 80, Band: "low", Seed: SeedOf(5), Intervals: 12},
		{Size: 80, Band: "low", Seed: SeedOf(5), Intervals: 12},
	}
	for i, s := range scenarios {
		res, err := runOne(context.Background(), p, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			continue
		}
		got, err := json.Marshal(res.Cluster)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("arena-reused cell %d diverged from direct RunCluster", i)
		}
	}

	if got := p.Stats().IntervalsSimulated; got != 6+12+12 {
		t.Errorf("IntervalsSimulated = %d, want 30", got)
	}
}
