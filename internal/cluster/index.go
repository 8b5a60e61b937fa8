package cluster

// The incremental server index: a persistently maintained,
// structure-of-arrays mirror of the per-server state the leader's
// end-of-interval pass reads, plus regime-bucketed membership sets, so
// plan construction starts from bucket membership and a dirty set rather
// than re-deriving every server's load and regime by pointer-chasing
// 10⁵–10⁶ *server.Server values each interval.
//
// Maintenance contract. Every mutation of a server that the leader can
// observe goes through a cluster-side hook that updates the index:
//
//   - in-place demand mutation (evolveDemand)      → noteDemandChange
//   - hosted-set changes (migrate, Admit, failure) → markDirty
//   - orphan dropped as lost (FailServer)          → markDirty
//   - sleep entry (applyBalance actSleep)          → onSleep
//   - wake start (applyBalance actWake)            → onWake
//   - crash (FailServer)                           → onCrash + markDirty
//   - repair (Repair)                              → onRepair
//   - Rebuild                                      → rebuildIndex
//
// Dirty-marked servers are reconciled by flushIndex — O(dirty), not
// O(N) — which recomputes raw/load/regime and the §4 cost column from the
// server's own memoized accessors (RawDemand, Evaluate) and moves the
// server between regime buckets only when it crossed a boundary. Every
// reader flushes first, so the index is exact wherever it is read: the
// leader's plan, the live acceptor search (findAcceptor), the end-of-
// interval statistics, and the public fleet accessors. evolveDemand also
// flushes after each server's application walk, while that server's
// hosted list is still in cache, which leaves the later flushes little
// to do. The membership sets hold exactly the servers that are neither
// sleeping nor failed; a member mid-wake (ACPI transition in flight)
// stays in its bucket and readers filter it with the busyUntil column,
// which avoids any dependence on when a wake-completion event fires
// relative to the interval tick.
//
// Determinism contract. Index reads yield bit-identical values to the
// live accessors they mirror (raw demand is the server's own memoized
// ordered sum; load/regime are derived with the same expressions; the
// cost column is the server's own memoized Evaluate result), and every
// consumer that folds floats sums in server-ID order exactly as the
// historical per-server scans did. Bucket iteration order is an artifact
// of deterministic insertions and swap-removals, so it is reproducible;
// consumers that need a canonical order sort by a total order (every plan
// sorter ends in an ID tiebreak) or reduce with order-insensitive
// operations. The differential oracle test (index_test.go) and a
// FuzzPlanBalance invariant cross-check the index against a full rescan.

import (
	"ealb/internal/regime"
	"ealb/internal/server"
	"ealb/internal/units"
)

// costs is one server's §4 cost estimates, as Evaluate reports them.
type costs struct {
	q, p, j units.Joules
}

// noPos marks a server as absent from the membership (or sleeper) set.
const noPos = -1

// serverIndex is the dense, server-ID-indexed fleet mirror. All slices
// are sized to the cluster and reused across Rebuilds.
type serverIndex struct {
	// raw/load/reg mirror RawDemand/Load/Regime for every server, valid
	// for non-dirty entries. bounds is the static per-Rebuild copy of
	// each server's regime boundaries (capacity thresholds).
	raw    []units.Fraction
	load   []units.Fraction
	reg    []regime.Region
	bounds []regime.Boundaries

	// cost mirrors each server's §4 Evaluate() estimates (q_k, p_k, j_k),
	// valid for non-dirty entries.
	cost []costs

	// sleeping and busyUntil mirror the ACPI axis: State().Sleeping()
	// and the transition-completion time (Busy(now) ⇔ now < busyUntil).
	// wakeLat caches the sleeping state's wake latency so planWake never
	// touches the ACPI spec table.
	sleeping  []bool
	busyUntil []units.Seconds
	wakeLat   []units.Seconds

	// dirty set: servers whose raw/load/reg entries are stale.
	dirty    []bool
	dirtyIDs []server.ID

	// buckets hold the membership sets (not sleeping, not failed) keyed
	// by regime (index 0 = R1); bucketPos is each member's slot for O(1)
	// swap-removal, noPos for non-members. A member's bucket is always
	// buckets[reg[id]-R1].
	buckets   [5][]server.ID
	bucketPos []int32

	// sleepers is the sleeping-server set with the same swap-remove
	// layout.
	sleepers   []server.ID
	sleeperPos []int32
}

// init sizes the index for n servers and clears it; capacity is retained
// across Rebuilds (the arena path).
func (ix *serverIndex) init(n int) {
	ix.raw = resize(ix.raw, n)
	ix.load = resize(ix.load, n)
	ix.reg = resize(ix.reg, n)
	ix.bounds = resize(ix.bounds, n)
	ix.cost = resize(ix.cost, n)
	ix.sleeping = resize(ix.sleeping, n)
	ix.busyUntil = resize(ix.busyUntil, n)
	ix.wakeLat = resize(ix.wakeLat, n)
	ix.dirty = resize(ix.dirty, n)
	ix.bucketPos = resize(ix.bucketPos, n)
	ix.sleeperPos = resize(ix.sleeperPos, n)
	clear(ix.raw)
	clear(ix.load)
	clear(ix.reg)
	clear(ix.bounds)
	clear(ix.cost)
	clear(ix.sleeping)
	clear(ix.busyUntil)
	clear(ix.wakeLat)
	clear(ix.dirty)
	for i := range ix.bucketPos {
		ix.bucketPos[i] = noPos
		ix.sleeperPos[i] = noPos
	}
	for b := range ix.buckets {
		ix.buckets[b] = ix.buckets[b][:0]
	}
	ix.dirtyIDs = ix.dirtyIDs[:0]
	ix.sleepers = ix.sleepers[:0]
}

// markDirty queues one server for reconciliation at the next flush.
func (ix *serverIndex) markDirty(id server.ID) {
	if !ix.dirty[id] {
		ix.dirty[id] = true
		ix.dirtyIDs = append(ix.dirtyIDs, id)
	}
}

// addMember inserts id into the bucket of its current regime entry. The
// entry may be dirty-stale; the flush that reconciles it moves the
// server to the right bucket in the same step.
func (ix *serverIndex) addMember(id server.ID) {
	if ix.bucketPos[id] != noPos {
		return
	}
	b := int(ix.reg[id] - regime.R1)
	ix.bucketPos[id] = int32(len(ix.buckets[b]))
	ix.buckets[b] = append(ix.buckets[b], id)
}

// removeMember swap-removes id from its bucket; a no-op for non-members.
func (ix *serverIndex) removeMember(id server.ID) {
	pos := ix.bucketPos[id]
	if pos == noPos {
		return
	}
	b := int(ix.reg[id] - regime.R1)
	bucket := ix.buckets[b]
	last := len(bucket) - 1
	moved := bucket[last]
	bucket[pos] = moved
	ix.bucketPos[moved] = pos
	ix.bucketPos[id] = noPos
	ix.buckets[b] = bucket[:last]
}

// addSleeper inserts id into the sleeper set; no-op if present.
func (ix *serverIndex) addSleeper(id server.ID) {
	if ix.sleeperPos[id] != noPos {
		return
	}
	ix.sleeperPos[id] = int32(len(ix.sleepers))
	ix.sleepers = append(ix.sleepers, id)
}

// removeSleeper swap-removes id from the sleeper set; no-op if absent.
func (ix *serverIndex) removeSleeper(id server.ID) {
	pos := ix.sleeperPos[id]
	if pos == noPos {
		return
	}
	last := len(ix.sleepers) - 1
	moved := ix.sleepers[last]
	ix.sleepers[pos] = moved
	ix.sleeperPos[moved] = pos
	ix.sleeperPos[id] = noPos
	ix.sleepers = ix.sleepers[:last]
}

// onSleep records a sleep entry: the server leaves the membership sets
// and joins the sleepers, with its transition end and eventual wake
// latency cached.
func (ix *serverIndex) onSleep(id server.ID, busyUntil, wakeLat units.Seconds) {
	ix.sleeping[id] = true
	ix.busyUntil[id] = busyUntil
	ix.wakeLat[id] = wakeLat
	ix.removeMember(id)
	ix.addSleeper(id)
}

// onWake records a wake start: the server rejoins the membership sets
// immediately (mirroring acpi.Manager, whose State flips to C0 at the
// wake call) but stays filtered out of plans by busyUntil until ready.
func (ix *serverIndex) onWake(id server.ID, ready units.Seconds) {
	ix.sleeping[id] = false
	ix.busyUntil[id] = ready
	ix.removeSleeper(id)
	ix.addMember(id)
}

// onCrash records a failure: the server leaves every set (whichever it
// was in) and its ACPI mirror resets to C0-with-nothing-armed, matching
// server.Crash.
func (ix *serverIndex) onCrash(id server.ID) {
	ix.sleeping[id] = false
	ix.busyUntil[id] = 0
	ix.removeSleeper(id)
	ix.removeMember(id)
}

// onRepair returns a repaired server to the membership sets (empty, in
// C0 — its regime entry reconciles to R1 at the next flush).
func (ix *serverIndex) onRepair(id server.ID) {
	ix.addMember(id)
}

// flushIndex reconciles every dirty-marked server: raw demand from the
// server's memoized ordered sum, load and regime by the same expressions
// the live accessors use, the cost column from its memoized Evaluate, and
// a bucket move when the regime crossed a boundary. Cost is O(dirty
// servers), and flushing twice is a no-op.
func (c *Cluster) flushIndex() {
	ix := &c.idx
	for _, id := range ix.dirtyIDs {
		s := c.servers[id]
		raw := s.RawDemand()
		load := raw.Clamp()
		r := ix.bounds[id].Classify(load)
		ix.raw[id] = raw
		ix.load[id] = load
		c.storeCosts(id, s)
		if r != ix.reg[id] {
			if ix.bucketPos[id] != noPos {
				ix.removeMember(id)
				ix.reg[id] = r
				ix.addMember(id)
			} else {
				ix.reg[id] = r
			}
		}
		ix.dirty[id] = false
	}
	ix.dirtyIDs = ix.dirtyIDs[:0]
}

// rebuildIndex builds the index from scratch for the freshly (re)built
// fleet: every server awake in C0, nothing failed, nothing dirty.
func (c *Cluster) rebuildIndex() {
	ix := &c.idx
	ix.init(len(c.servers))
	for i, s := range c.servers {
		ix.bounds[i] = s.Boundaries()
		raw := s.RawDemand()
		ix.raw[i] = raw
		ix.load[i] = raw.Clamp()
		ix.reg[i] = ix.bounds[i].Classify(ix.load[i])
		c.storeCosts(server.ID(i), s)
		ix.addMember(server.ID(i))
	}
}

// storeCosts refreshes one server's cost column from its Evaluate.
func (c *Cluster) storeCosts(id server.ID, s *server.Server) {
	ev := s.Evaluate()
	c.idx.cost[id] = costs{q: ev.QCost, p: ev.PCost, j: ev.JCost}
}

// noteDemandChange records that a hosted application's demand on s was
// mutated in place: the server's own memoized sum and the index entry
// both go stale together.
func (c *Cluster) noteDemandChange(s *server.Server) {
	s.MarkDemandDirty()
	c.idx.markDirty(s.ID())
}

// activeID is the index-backed protocol-participation check: not failed,
// not sleeping, no ACPI transition in flight. The maintenance hooks keep
// it exactly equal to !failed && !Sleeping() && !CStateBusy(now).
func (c *Cluster) activeID(id server.ID) bool {
	return !c.failed[id] && !c.idx.sleeping[id] && c.idx.busyUntil[id] <= c.now
}
