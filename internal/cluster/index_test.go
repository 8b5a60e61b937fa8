package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ealb/internal/regime"
	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/workload"
	"ealb/internal/xrand"
)

// verifyIndexAgainstRescan is the differential oracle: it re-derives every
// server's raw demand, load, regime, §4 costs, ACPI mirror, and set
// membership from the live *server.Server values — the full O(N) rescan
// the incremental index replaced — and fails on any divergence. The comparisons are exact
// (==, not within-epsilon): the index contract is that flushed entries are
// bit-identical to the live accessors, because plan construction folds
// these floats into digested statistics.
func verifyIndexAgainstRescan(t *testing.T, c *Cluster) {
	t.Helper()
	c.flushIndex()
	ix := &c.idx
	if len(ix.dirtyIDs) != 0 {
		t.Fatalf("dirty queue non-empty after flush: %v", ix.dirtyIDs)
	}
	var members, sleepers int
	for i, s := range c.servers {
		id := server.ID(i)
		if ix.dirty[id] {
			t.Fatalf("server %d still dirty-flagged after flush", id)
		}
		if got, want := ix.bounds[id], s.Boundaries(); got != want {
			t.Fatalf("server %d: index bounds %+v, live %+v", id, got, want)
		}
		if got, want := ix.raw[id], s.RawDemand(); got != want {
			t.Fatalf("server %d: index raw %v, rescan %v", id, got, want)
		}
		if got, want := ix.load[id], s.Load(); got != want {
			t.Fatalf("server %d: index load %v, rescan %v", id, got, want)
		}
		if got, want := ix.reg[id], s.Regime(); got != want {
			t.Fatalf("server %d: index regime %v, rescan %v", id, got, want)
		}
		ev := s.Evaluate()
		if got, want := ix.cost[id], (costs{q: ev.QCost, p: ev.PCost, j: ev.JCost}); got != want {
			t.Fatalf("server %d: index costs %+v, Evaluate %+v", id, got, want)
		}
		if got, want := ix.sleeping[id], s.Sleeping(); got != want {
			t.Fatalf("server %d: index sleeping=%v, live %v", id, got, want)
		}
		// busyUntil is compared through the predicate consumers read:
		// crash resets the mirror to zero while the ACPI manager keeps its
		// historical completion time, so the raw columns legitimately
		// differ on repaired servers — the in-flight-transition answer
		// must not.
		if got, want := ix.busyUntil[id] > c.now, s.CStateBusy(c.now); got != want {
			t.Fatalf("server %d: index busy=%v (until %v, now %v), live %v",
				id, got, ix.busyUntil[id], c.now, want)
		}
		if s.Sleeping() {
			lat, err := s.WakeLatency()
			if err != nil {
				t.Fatal(err)
			}
			if ix.wakeLat[id] != lat {
				t.Fatalf("server %d: index wakeLat %v, live %v", id, ix.wakeLat[id], lat)
			}
		}

		// Set membership: a server is in exactly the sets the rescan
		// classifier puts it in, at the position the pos column claims.
		wantMember := !c.failed[id] && !s.Sleeping()
		if pos := ix.bucketPos[id]; wantMember {
			b := int(ix.reg[id] - regime.R1)
			if pos == noPos {
				t.Fatalf("server %d: rescan says member of bucket %v, index says non-member", id, ix.reg[id])
			}
			if got := ix.buckets[b][pos]; got != id {
				t.Fatalf("server %d: bucketPos %d holds server %d", id, pos, got)
			}
			members++
		} else if pos != noPos {
			t.Fatalf("server %d: rescan says non-member (failed=%v sleeping=%v), index bucketPos=%d",
				id, c.failed[id], s.Sleeping(), pos)
		}
		wantSleeper := s.Sleeping() && !c.failed[id]
		if pos := ix.sleeperPos[id]; wantSleeper {
			if pos == noPos {
				t.Fatalf("server %d: rescan says sleeper, index says not", id)
			}
			if got := ix.sleepers[pos]; got != id {
				t.Fatalf("server %d: sleeperPos %d holds server %d", id, pos, got)
			}
			sleepers++
		} else if pos != noPos {
			t.Fatalf("server %d: rescan says non-sleeper, index sleeperPos=%d", id, pos)
		}
	}
	// No phantom entries: set cardinalities match the rescan counts, so
	// every bucket element is accounted for by some server's pos column.
	if got := len(ix.buckets[0]) + len(ix.buckets[1]) + len(ix.buckets[2]) + len(ix.buckets[3]) + len(ix.buckets[4]); got != members {
		t.Fatalf("buckets hold %d members, rescan counted %d", got, members)
	}
	if got := len(ix.sleepers); got != sleepers {
		t.Fatalf("sleeper set holds %d, rescan counted %d", got, sleepers)
	}
}

// TestIndexDifferentialOracle drives randomized interval evolution,
// admissions, crashes, repairs, and in-place Rebuilds against several
// cluster configurations and cross-checks the incremental index against
// the full-rescan classifier after every step. This is the property test
// backing the index's maintenance contract: any missed hook, stale dirty
// entry, or bucket-accounting bug diverges from the rescan here long
// before it corrupts a golden digest.
func TestIndexDifferentialOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2014, 0xdeadbeef} {
		cfg := DefaultConfig(60, workload.LowLoad(), seed)
		if seed%2 == 0 {
			cfg.InitialLoad = workload.HighLoad()
		}
		// Stochastic churn on: crashes and repairs fire organically inside
		// RunIntervals, exercising onCrash/onRepair under the oracle.
		cfg.MTBF = 15 * cfg.Tau
		cfg.MTTR = 4 * cfg.Tau
		// Every interval's §4 cost averages, folded from the index's cost
		// column, must equal a full live Evaluate rescan.
		var c *Cluster
		intervals := 0
		cfg.OnInterval = func(st IntervalStats) {
			intervals++
			q, p, j := liveCostAverages(t, c)
			if st.AvgQCost != q || st.AvgPCost != p || st.AvgJCost != j {
				t.Fatalf("interval %d: cost averages q=%v p=%v j=%v, live rescan q=%v p=%v j=%v",
					st.Index, st.AvgQCost, st.AvgPCost, st.AvgJCost, q, p, j)
			}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		verifyIndexAgainstRescan(t, c)

		rng := xrand.New(seed ^ 0xa5a5)
		for step := 0; step < 40; step++ {
			switch rng.Intn(10) {
			case 0: // manual crash of a random server
				id := server.ID(rng.Intn(len(c.servers)))
				if _, _, err := c.FailServer(id); err != nil && !c.Failed(id) {
					t.Fatal(err)
				}
			case 1: // manual repair of the first failed server, if any
				for i := range c.servers {
					if c.failed[i] {
						if err := c.Repair(server.ID(i)); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
			case 2: // admission of a fresh application
				demand := units.Fraction(0.02 + 0.1*rng.Float64())
				if _, _, err := c.Admit(demand); err != nil {
					t.Fatal(err)
				}
			case 3: // in-place Rebuild with a rotated seed: full re-seed path
				cfg.Seed = seed + uint64(step)
				if err := c.Rebuild(cfg); err != nil {
					t.Fatal(err)
				}
			default: // evolve: demand walk, churn, balance, sleep/wake
				if _, err := c.RunIntervals(context.Background(), 1); err != nil {
					t.Fatal(err)
				}
			}
			verifyIndexAgainstRescan(t, c)
		}
		if intervals == 0 {
			t.Fatalf("seed %d: no interval ran, so the cost averages went unchecked", seed)
		}
	}
}

// liveCostAverages computes the §4 cost averages the way the end-of-
// interval scan did before the index carried a cost column: Evaluate on
// every server that is live by its own accessors (not failed, not
// sleeping, no transition in flight), summed in server-ID order.
func liveCostAverages(t *testing.T, c *Cluster) (q, p, j units.Joules) {
	t.Helper()
	var sq, sp, sj float64
	n := 0
	for i, s := range c.servers {
		if c.failed[i] || s.Sleeping() || s.CStateBusy(c.now) {
			continue
		}
		ev := s.Evaluate()
		sq += float64(ev.QCost)
		sp += float64(ev.PCost)
		sj += float64(ev.JCost)
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return units.Joules(sq / float64(n)), units.Joules(sp / float64(n)), units.Joules(sj / float64(n))
}

// TestFailServerLostAppMarksDirty crashes servers of a full cluster until
// one orphan fits nowhere and is dropped. The acceptor search flushes the
// index while the victim still hosts its apps, so the drop must mark the
// victim dirty again or its index entry keeps the pre-crash demand.
func TestFailServerLostAppMarksDirty(t *testing.T) {
	c := mustCluster(t, 40, workload.HighLoad(), 59)
	totalLost := 0
	for i := 0; i < 20; i++ {
		id := server.ID(i)
		_, lost, err := c.FailServer(id)
		if err != nil {
			t.Fatal(err)
		}
		totalLost += lost
		c.flushIndex()
		if got, want := c.idx.raw[id], c.servers[id].RawDemand(); got != want {
			t.Fatalf("failed server %d (lost %d): index raw %v, rescan %v", id, lost, got, want)
		}
		verifyIndexAgainstRescan(t, c)
	}
	if totalLost == 0 {
		t.Fatal("no orphan was lost; the dropped-app path went unexercised")
	}
}

// liveFindAcceptor is the acceptor search as it was before it read the
// index: every candidate is judged through its *server.Server accessors,
// activity included. It is the reference the index-backed findAcceptor
// must match — same winner, same RNG draws.
func liveFindAcceptor(c *Cluster, demand units.Fraction, exclude *server.Server, limit acceptLimit) *server.Server {
	var best *server.Server
	for i := 0; i < candidateSample; i++ {
		cand := c.servers[c.rng.Intn(len(c.servers))]
		if cand == exclude || c.failed[cand.ID()] || cand.Sleeping() || cand.CStateBusy(c.now) {
			continue
		}
		if !(cand.Load()+demand <= limit.limitAt(cand.Boundaries())) {
			continue
		}
		if best == nil || cand.Load() > best.Load() {
			best = cand
		}
	}
	return best
}

// TestFindAcceptorMatchesLiveScan checks the index-backed acceptor search
// against liveFindAcceptor over churned clusters holding sleeping, waking
// and failed servers, with dirty index entries pending. Each query is
// shaped like one of the three callers — growth routing (the growing
// server excluded, optimal-high limit), failure re-placement (the victim
// excluded, both limits) and admission (nothing excluded, both limits) —
// and must return the same server and leave the protocol RNG at the same
// position.
func TestFindAcceptorMatchesLiveScan(t *testing.T) {
	type query struct {
		caller  string
		exclude *server.Server
		limit   acceptLimit
	}
	var sawSleeping, sawWaking, sawFailed, sawFound, sawNone bool
	for _, seed := range []uint64{3, 2014, 0xfeed} {
		cfg := DefaultConfig(80, workload.LowLoad(), seed)
		if seed%2 == 0 {
			cfg.InitialLoad = workload.HighLoad()
		}
		cfg.Sleep = SleepC6Only // slow wakes stay in flight across intervals
		cfg.MTBF = 15 * cfg.Tau
		cfg.MTTR = 4 * cfg.Tau
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed ^ 0x5a5a)
		for step := 0; step < 30; step++ {
			if _, err := c.RunIntervals(context.Background(), 1); err != nil {
				t.Fatal(err)
			}
			// Wake one settled sleeper through the apply path, so its C6
			// setup is still in flight at the queries below.
			if rng.Bool(0.5) {
				for _, id := range c.idx.sleepers {
					if c.servers[id].CStateBusy(c.now) {
						continue
					}
					wake := &balancePlan{actions: []action{{kind: actWake, src: id}}}
					if err := c.applyBalance(wake); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			if rng.Bool(0.3) {
				id := server.ID(rng.Intn(len(c.servers)))
				if _, _, err := c.FailServer(id); err != nil && !c.Failed(id) {
					t.Fatal(err)
				}
			}
			// Leave index entries dirty: in-place demand changes on a few
			// active servers, recorded but not yet flushed.
			for k := 0; k < 3; k++ {
				s := c.servers[rng.Intn(len(c.servers))]
				if !c.activeID(s.ID()) || s.NumApps() == 0 {
					continue
				}
				s.At(0).App.Evolve(rng, 0)
				c.noteDemandChange(s)
			}

			for i, s := range c.servers {
				sawSleeping = sawSleeping || s.Sleeping()
				sawWaking = sawWaking || (!s.Sleeping() && s.CStateBusy(c.now))
				sawFailed = sawFailed || c.failed[i]
			}
			grower := c.servers[rng.Intn(len(c.servers))]
			victim := c.servers[rng.Intn(len(c.servers))]
			queries := []query{
				{"growth", grower, acceptToOptHigh},
				{"failure", victim, acceptToOptHigh},
				{"failure", victim, acceptToSoptHigh},
				{"admission", nil, acceptToOptHigh},
				{"admission", nil, acceptToSoptHigh},
			}
			for _, q := range queries {
				demand := units.Fraction(0.01 + 0.3*rng.Float64())
				start := *c.rng
				got := c.findAcceptor(demand, q.exclude, q.limit)
				gotRNG := *c.rng
				*c.rng = start
				want := liveFindAcceptor(c, demand, q.exclude, q.limit)
				if got != want {
					t.Fatalf("seed %d step %d %s query (demand %v, limit %d): index search returned %v, live scan %v",
						seed, step, q.caller, demand, q.limit, serverName(got), serverName(want))
				}
				if gotRNG != *c.rng {
					t.Fatalf("seed %d step %d %s query: RNG positions differ after the search", seed, step, q.caller)
				}
				sawFound = sawFound || got != nil
				sawNone = sawNone || got == nil
			}
		}
	}
	if !sawSleeping || !sawWaking || !sawFailed || !sawFound || !sawNone {
		t.Fatalf("coverage gap: sleeping=%v waking=%v failed=%v found=%v none=%v",
			sawSleeping, sawWaking, sawFailed, sawFound, sawNone)
	}
}

// serverName renders an acceptor result for failure messages.
func serverName(s *server.Server) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("server %d", s.ID())
}

// TestAcceptorSearchesAcceptExactTie pins the fit rule of the acceptor
// search, through both its live and plan entry points, at its boundary:
// a server whose load plus the demand equals the limit exactly in
// float64 still fits (load+demand <= limit, not <).
// In a two-server cluster with the other server excluded, that server
// is the only eligible candidate, so a search that rejected the tie
// would find no acceptor.
func TestAcceptorSearchesAcceptExactTie(t *testing.T) {
	c, err := New(DefaultConfig(2, workload.LowLoad(), 2014))
	if err != nil {
		t.Fatal(err)
	}
	c.flushIndex()
	id, other := server.ID(0), server.ID(1)
	if !c.activeID(id) {
		id, other = other, id
	}
	if !c.activeID(id) {
		t.Fatal("no active server")
	}
	load := c.idx.load[id]
	tested := 0
	for _, limit := range []acceptLimit{acceptToOptLow, acceptToOptMid, acceptToOptHigh, acceptToSoptHigh} {
		bound := limit.limitAt(c.idx.bounds[id])
		if bound <= load {
			continue
		}
		// Find a demand whose sum with load rounds to the bound exactly.
		demand := bound - load
		for k := 0; k < 8 && load+demand != bound; k++ {
			if load+demand < bound {
				demand = units.Fraction(math.Nextafter(float64(demand), math.Inf(1)))
			} else {
				demand = units.Fraction(math.Nextafter(float64(demand), 0))
			}
		}
		if load+demand != bound {
			t.Fatalf("limit %d: no demand ties load %v with bound %v", limit, load, bound)
		}
		tested++
		if got := c.findAcceptor(demand, c.servers[other], limit); got == nil || got.ID() != id {
			t.Errorf("limit %d: findAcceptor rejected the server at an exact tie (load %v + demand %v = %v)", limit, load, demand, bound)
		}
		c.leader.resetPlan()
		if got := c.planFindAcceptor(demand, other, limit); got != id {
			t.Errorf("limit %d: planFindAcceptor rejected the server at an exact tie (load %v + demand %v = %v)", limit, load, demand, bound)
		}
	}
	if tested == 0 {
		t.Fatalf("load %v is at or above every accept limit; the test needs room", load)
	}
}
