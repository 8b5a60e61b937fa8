package cluster

import (
	"testing"

	"ealb/internal/units"
	"ealb/internal/workload"
)

// The golden digests pin the exact per-interval output of the reference
// scenarios: SHA-256 over the JSON encoding of the IntervalStats stream.
// The 10⁴-server churned run was added later and pinned from the code of
// its day; it is the only pin that covers a fleet that large with all
// four interval phases at work.
// They were captured from the pre-refactor protocol implementation (PR 2,
// commit f10c39b) and must never change — the leader-state refactor, the
// plan/apply split, and the arena rebuild path are all required to be
// byte-identical to the original per-interval mutation code. A digest
// mismatch means the RNG call sequence or a float summation order moved,
// which silently invalidates every experiment in EXPERIMENTS.md.
//
// After an intentional simulation change (which must be called out as
// such in the PR), re-pin by copying the "got" digest from the failure
// output of:
//
//	go test ./internal/cluster -run 'TestGoldenIntervalDigests/<scenario>' -v
var goldenDigests = []struct {
	name      string
	size      int
	band      workload.Band
	seed      uint64
	intervals int
	// mtbf and mttr enable churn when non-zero.
	mtbf, mttr units.Seconds
	digest     string
}{
	{"size=100/low/seed=1", 100, workload.LowLoad(), 1, 40, 0, 0,
		"d832b8a0bb52af190651dde4d25a20e2897ce749276dfb7125a5d9a12813b309"},
	{"size=100/high/seed=2014", 100, workload.HighLoad(), 2014, 40, 0, 0,
		"efc40dbd8fdbfa2aca0e70a244f980a3a1e687b41aebc39d192346d68fe43ff0"},
	{"size=1000/low/seed=1", 1000, workload.LowLoad(), 1, 25, 0, 0,
		"c731b5195938cf0008422134f2893d651c45efc2f78caba72fbd4f5fd36ff65a"},
	{"size=1000/high/seed=2014", 1000, workload.HighLoad(), 2014, 25, 0, 0,
		"467d9533fdb79381ca3eae7733f3741a37466201a53ef9714be3b8b3ace9952d"},
	{"size=10000/low/seed=31337/churn", 10000, workload.LowLoad(), 31337, 13, 240 * Tau, 5 * Tau,
		"c523f9d2bd92a3754e079e5000c634233b6cb4e3954c582332309ac889356f59"},
}

// intervalDigest runs the scenario and hashes the JSON-encoded stream.
// Under EALB_TEST_TRACE=1 (CI's trace-enabled variant) a tracer is
// attached, so the digests double as the tracing-is-observational
// invariant: they must match the pins either way.
func intervalDigest(t *testing.T, size int, band workload.Band, seed uint64, intervals int, mtbf, mttr units.Seconds) string {
	t.Helper()
	cfg := DefaultConfig(size, band, seed)
	cfg.MTBF, cfg.MTTR = mtbf, mttr
	return tracedDigest(t, cfg, intervals, testTracer())
}

func TestGoldenIntervalDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests cover size-1000 runs; skipped in -short mode")
	}
	for _, g := range goldenDigests {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			got := intervalDigest(t, g.size, g.band, g.seed, g.intervals, g.mtbf, g.mttr)
			if got != g.digest {
				t.Errorf("digest drifted from the pre-refactor pin:\n got  %s\n want %s", got, g.digest)
			}
		})
	}
}
