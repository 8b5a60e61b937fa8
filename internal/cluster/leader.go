package cluster

// The leader's end-of-interval protocol is split into a pure *plan* step
// and an effectful *apply* step (protocol.go).
//
// planBalance computes every decision of §4's reallocation pass — regime
// reports, overload relief, wake-ups, consolidation-to-sleep — as an
// ordered action list without mutating any server, VM, ledger, or network
// state. Decisions that depend on the loads earlier decisions will have
// produced (an acceptor filling up, a relief donor draining) read them
// through a projected-load view: a dense, server-ID-indexed overlay over
// the incremental index (index.go) that tracks the planned placement
// changes.
//
// The plan step never dereferences a *server.Server for load, regime,
// capacity, or sleep state: those live in the index's structure-of-arrays
// columns, flushed to O(changed) cost at the start of the pass. Donor and
// acceptor candidate lists come from the index's regime buckets instead
// of a fleet scan, so list construction costs O(|relevant buckets|), and
// the wake pick scans only the sleeper set. Server pointers appear only
// where hosted app lists are materialized into the projection.
//
// Two properties are load-bearing and guarded by the golden digest test:
//
//  1. The RNG call sequence is identical to the historical
//     mutate-as-you-go implementation: every candidate sample happens at
//     the same point of the decision sequence, so a seed reproduces the
//     exact experiment streams of earlier releases.
//  2. Float arithmetic is order-identical. A server's projected load is
//     maintained exactly as server.RawDemand would compute it after the
//     move — ordered summation over the working app list on removal,
//     running addition on append — so plan-time comparisons see
//     bit-identical values to the ones apply-time state produces. Bucket
//     iteration order is deterministic but not ID-sorted; every list
//     built from buckets is therefore sorted by a total order (each
//     sorter ends in an ID tiebreak), which pins the same final sequence
//     the historical ID-order scans produced.
//
// All plan state lives in leaderState, owned by the Cluster and reused
// across intervals: dense slices indexed by server ID replace the
// per-interval map and slice allocations of the historical
// implementation, which is what makes the steady-state interval loop
// allocation-free.

import (
	"slices"

	"ealb/internal/acpi"
	"ealb/internal/app"
	"ealb/internal/regime"
	"ealb/internal/server"
	"ealb/internal/units"
)

// noServer is the plan-side "no candidate" sentinel.
const noServer server.ID = -1

// actKind discriminates the entries of a balance plan.
type actKind uint8

const (
	// actReport is one awake server's regime report to the leader.
	actReport actKind = iota
	// actMove migrates one application from src to dst.
	actMove
	// actWake wakes the sleeping server src.
	actWake
	// actSleep parks the (by then empty) server src in target.
	actSleep
)

// action is one step of a balance plan. The zero-width encoding (IDs, not
// pointers) keeps the plan a pure description: applying it resolves the
// IDs against the cluster, and tests can assert on it structurally.
type action struct {
	kind   actKind
	src    server.ID
	dst    server.ID // move target; unused otherwise
	app    app.ID    // moved application; unused otherwise
	target acpi.CState
}

// balancePlan is the leader's decision list for one reallocation pass, in
// execution order: reports first, then per relief donor its migrations
// and (if still undesirable) a wake-up, then per consolidation donor its
// evacuation migrations followed by its sleep transition. applyBalance
// replays the list linearly; keeping the historical interleaving means
// energy accumulators see charges in the historical order.
type balancePlan struct {
	actions []action
	woken   int // wake-ups in the plan
}

// leaderState is the Cluster's persistent protocol state: the regime
// streak counters that outlive an interval, plus every scratch buffer and
// dense projection the plan step needs, reused across intervals so the
// steady-state hot path does not allocate.
type leaderState struct {
	// r1Streak counts consecutive intervals each server ended in R1;
	// r4Streak does the same for R4. The streaks implement the paper's
	// urgency distinction: suboptimal and low-undesirable conditions are
	// acted on only when they persist, undesirable-high immediately.
	r1Streak []int
	r4Streak []int

	// Plan scratch: the relief donor ID list (built from the index's
	// regime buckets) and the plan under construction.
	donors []server.ID
	plan   balancePlan

	// Projected-load view. A server is "touched" once a planned move
	// involves it; from then on its working app list and raw demand sum
	// live here. touched lists the IDs to reset in O(touched).
	viewTouched []bool
	viewApps    [][]server.Hosted
	viewRaw     []units.Fraction
	touched     []server.ID

	// Planned wake/sleep markers (dense), with their reset list.
	plannedSleep []bool
	plannedWake  []bool
	planned      []server.ID

	// Per-donor evacuation scratch: the all-or-nothing projected overlay
	// and the move list of the attempt in progress.
	projected   []units.Fraction
	projTouched []server.ID
	evacMoves   []evacMove

	// appsScratch holds one donor's demand-sorted app list at a time.
	appsScratch []server.Hosted

	// Lazy candidate selections: relief acceptors (fullest first) and
	// consolidation donors (emptiest first). Only the consumed prefix of
	// each order is ever materialized; see lazySelection.
	acceptorSel lazySelection
	consolSel   lazySelection

	// donorCmp is the relief donor comparator, built once per Cluster on
	// the cold Rebuild path so the per-interval sort call passes a
	// preallocated func value instead of allocating a fresh closure.
	donorCmp func(a, b server.ID) int
}

// lazySelection yields server IDs in ascending (key, ID) order without
// sorting the whole candidate set: the candidates sit in a binary heap
// and are popped into the materialized prefix on demand. Because the
// keys are snapshotted at build time and (key, ID) is a strict total
// order, the materialized sequence is exactly what a stable sort of the
// full set under the same comparator would produce — the golden digests
// that pin the leader's shed and sleep order cannot tell the two apart.
// The plan pass typically consumes a short prefix (bounded by the relief
// and consolidation budgets), so the O(n log n) tail is never paid.
//
// Descending orders negate the key (exact for floats; equal keys stay
// equal, so the ID tiebreak is unaffected).
type lazySelection struct {
	key    []units.Fraction // dense snapshot keys, indexed by server ID
	heap   []server.ID      // unmaterialized candidates, heap-ordered
	sorted []server.ID      // materialized prefix, in final order
}

// before reports whether a precedes b in the selection order.
func (z *lazySelection) before(a, b server.ID) bool {
	if z.key[a] != z.key[b] {
		return z.key[a] < z.key[b]
	}
	return a < b
}

func (z *lazySelection) siftDown(i int) {
	h := z.heap
	for {
		l := 2*i + 1
		if l >= len(h) || l < 0 {
			return
		}
		best := l
		if r := l + 1; r < len(h) && z.before(h[r], h[l]) {
			best = r
		}
		if !z.before(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// build heapifies the candidates currently in z.heap (Floyd's method,
// O(n)) and resets the materialized prefix. Keys must already be set.
func (z *lazySelection) build() {
	for i := len(z.heap)/2 - 1; i >= 0; i-- {
		z.siftDown(i)
	}
	z.sorted = z.sorted[:0]
}

// at returns the i-th element of the selection order, materializing lazily;
// ok is false past the end of the candidate set.
func (z *lazySelection) at(i int) (server.ID, bool) {
	for len(z.sorted) <= i {
		h := z.heap
		if len(h) == 0 {
			return 0, false
		}
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		z.heap = h[:last]
		if last > 0 {
			z.siftDown(0)
		}
		z.sorted = append(z.sorted, top)
	}
	return z.sorted[i], true
}

// evacMove is one step of an evacuation attempt before it commits.
type evacMove struct {
	dst server.ID
	h   server.Hosted
}

// resize returns s with length n, preserving capacity where possible.
// Contents are unspecified; callers zero or truncate as needed.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// init sizes the dense state for a cluster of n servers and clears all of
// it — the Rebuild path. Scratch capacity is retained.
func (ls *leaderState) init(n int) {
	ls.r1Streak = resize(ls.r1Streak, n)
	ls.r4Streak = resize(ls.r4Streak, n)
	ls.viewTouched = resize(ls.viewTouched, n)
	ls.viewRaw = resize(ls.viewRaw, n)
	ls.plannedSleep = resize(ls.plannedSleep, n)
	ls.plannedWake = resize(ls.plannedWake, n)
	ls.projected = resize(ls.projected, n)
	ls.acceptorSel.key = resize(ls.acceptorSel.key, n)
	ls.consolSel.key = resize(ls.consolSel.key, n)
	clear(ls.r1Streak)
	clear(ls.r4Streak)
	clear(ls.viewTouched)
	clear(ls.viewRaw)
	clear(ls.plannedSleep)
	clear(ls.plannedWake)
	clear(ls.projected)
	ls.viewApps = resize(ls.viewApps, n)
	for i := range ls.viewApps {
		ls.viewApps[i] = ls.viewApps[i][:0]
	}
	ls.touched = ls.touched[:0]
	ls.planned = ls.planned[:0]
	ls.projTouched = ls.projTouched[:0]
	ls.donors = ls.donors[:0]
	ls.acceptorSel.heap = ls.acceptorSel.heap[:0]
	ls.acceptorSel.sorted = ls.acceptorSel.sorted[:0]
	ls.consolSel.heap = ls.consolSel.heap[:0]
	ls.consolSel.sorted = ls.consolSel.sorted[:0]
	ls.plan.actions = ls.plan.actions[:0]
	ls.plan.woken = 0
	ls.evacMoves = ls.evacMoves[:0]
	ls.appsScratch = ls.appsScratch[:0]
}

// resetPlan clears the plan and its projection in O(touched). balance
// calls it once the plan is applied, so outside a balance pass the
// projection is empty and every plan-side read equals the live index.
func (ls *leaderState) resetPlan() {
	for _, id := range ls.touched {
		ls.viewTouched[id] = false
		ls.viewApps[id] = ls.viewApps[id][:0]
	}
	ls.touched = ls.touched[:0]
	for _, id := range ls.planned {
		ls.plannedSleep[id] = false
		ls.plannedWake[id] = false
	}
	ls.planned = ls.planned[:0]
	ls.plan.actions = ls.plan.actions[:0]
	ls.plan.woken = 0
}

// rawSum computes the demand sum the way server.RawDemand does: ordered,
// left to right, so the view's floats are bit-identical to the server's.
func rawSum(hs []server.Hosted) units.Fraction {
	var sum units.Fraction
	for _, h := range hs {
		sum += h.App.Demand
	}
	return sum
}

// planTouch materializes the working copy of id's hosted list on first
// contact with the plan — the only plan-side read that follows the
// server pointer (the app list lives there).
//
//ealb:pure
func (c *Cluster) planTouch(id server.ID) {
	ls := &c.leader
	if ls.viewTouched[id] {
		return
	}
	ls.viewTouched[id] = true
	ls.touched = append(ls.touched, id)
	ls.viewApps[id] = c.servers[id].AppendHosted(ls.viewApps[id][:0])
	ls.viewRaw[id] = rawSum(ls.viewApps[id])
}

// planLoad returns id's load as the plan's moves so far would leave it:
// the projected sum for touched servers, the index column otherwise.
//
//ealb:pure
func (c *Cluster) planLoad(id server.ID) units.Fraction {
	if c.leader.viewTouched[id] {
		return c.leader.viewRaw[id].Clamp()
	}
	return c.idx.load[id]
}

// planRegime classifies id's projected load.
//
//ealb:pure
func (c *Cluster) planRegime(id server.ID) regime.Region {
	return c.idx.bounds[id].Classify(c.planLoad(id))
}

// planFits reports whether dst can take demand under the limit, seen
// through the projection.
//
//ealb:pure
func (c *Cluster) planFits(dst server.ID, demand units.Fraction, limit acceptLimit) bool {
	return c.planLoad(dst)+demand <= limit.limitAt(c.idx.bounds[dst])
}

// planActive reports whether a server can take part in further planning:
// live-active and not already slated for sleep by this plan. (A server
// slated for wake-up is still Sleeping live, so it stays excluded — just
// as the historical code's in-flight wake transition excluded it.)
//
//ealb:pure
func (c *Cluster) planActive(id server.ID) bool {
	return c.activeID(id) && !c.leader.plannedSleep[id]
}

// planAppsByDemand fills the shared scratch with id's projected app list,
// demand-sorted the way the shed loop consumes it. Valid until the next
// call.
//
//ealb:pure
func (c *Cluster) planAppsByDemand(id server.ID) []server.Hosted {
	ls := &c.leader
	if ls.viewTouched[id] {
		ls.appsScratch = append(ls.appsScratch[:0], ls.viewApps[id]...)
	} else {
		ls.appsScratch = c.servers[id].AppendHosted(ls.appsScratch[:0])
	}
	server.SortByDemand(ls.appsScratch)
	return ls.appsScratch
}

// planMove records the migration of h from src to dst and updates the
// projection: src's working list drops h and its sum is recomputed by
// ordered summation (floating-point subtraction would drift from what the
// server computes after the real removal); dst appends h and its sum
// grows by running addition, exactly matching RawDemand after Place.
//
//ealb:pure
func (c *Cluster) planMove(src, dst server.ID, h server.Hosted) {
	c.planTouch(src)
	c.planTouch(dst)
	ls := &c.leader
	apps := ls.viewApps[src]
	for i := range apps {
		if apps[i].App.ID == h.App.ID {
			apps = append(apps[:i], apps[i+1:]...)
			break
		}
	}
	ls.viewApps[src] = apps
	ls.viewRaw[src] = rawSum(apps)
	ls.viewApps[dst] = append(ls.viewApps[dst], h)
	ls.viewRaw[dst] += h.App.Demand
	ls.plan.actions = append(ls.plan.actions, action{
		kind: actMove, src: src, dst: dst, app: h.App.ID,
	})
}

// planClusterLoad is total projected load over total capacity, summed in
// server-ID order; with the projection empty it is ClusterLoad.
//
//ealb:pure
func (c *Cluster) planClusterLoad() units.Fraction {
	var sum float64
	for i := range c.idx.load {
		sum += float64(c.planLoad(server.ID(i)))
	}
	return units.Fraction(sum / float64(len(c.servers)))
}

// planSleepTarget applies the configured sleep policy to the projected
// cluster state (§6's 60% rule under SleepAuto).
//
//ealb:pure
func (c *Cluster) planSleepTarget() acpi.CState {
	switch c.cfg.Sleep {
	case SleepC3Only:
		return acpi.C3
	case SleepC6Only:
		return acpi.C6
	default:
		if c.planClusterLoad() < 0.6 {
			return acpi.C6
		}
		return acpi.C3
	}
}

// planFindAcceptor samples a bounded candidate list (the leader's
// MsgCandidateList) and returns the best-fitting eligible server under
// the projection plus the evacuation overlay: the most loaded one that
// still fits, concentrating load per the paper's reformulated load
// balancing goal. Returns noServer when no candidate fits. The RNG draws
// are one Intn per sample slot, whatever the candidates turn out to be.
//
//ealb:pure
func (c *Cluster) planFindAcceptor(demand units.Fraction, exclude server.ID, limit acceptLimit) server.ID {
	best := noServer
	var bestLoad units.Fraction
	for i := 0; i < candidateSample; i++ {
		cand := server.ID(c.rng.Intn(len(c.servers)))
		if cand == exclude || !c.planActive(cand) {
			continue
		}
		load := c.planLoad(cand) + c.leader.projected[cand]
		if load+demand <= limit.limitAt(c.idx.bounds[cand]) && (best == noServer || load > bestLoad) {
			best, bestLoad = cand, load
		}
	}
	return best
}

// planBalance computes the leader's full end-of-interval pass (§4) as a
// plan, mutating nothing but the leader's own scratch state (and the
// protocol RNG, whose draws belong to the decision sequence). The
// returned plan is owned by the leaderState and valid until resetPlan.
//
//ealb:hotpath
//ealb:pure
func (c *Cluster) planBalance() (*balancePlan, error) {
	ls := &c.leader
	// Reconcile the index once; the whole pass then runs on its columns.
	// The flush is the one sanctioned impurity in the plan step: it
	// folds already-recorded demand deltas into the read-only mirror —
	// idempotent, order-insensitive, and invisible to the protocol's
	// decision sequence (flushing twice is a no-op).
	//ealb:allow-impure index flush reconciles a mirror of state already committed; not a decision effect
	c.flushIndex()

	// Step 1: every awake server reports its regime to the leader, in
	// server-ID order (the report replay order is pinned by the traces).
	for i := range c.servers {
		id := server.ID(i)
		if !c.activeID(id) {
			continue
		}
		ls.plan.actions = append(ls.plan.actions, action{kind: actReport, src: id})
	}

	if err := c.planRelief(); err != nil {
		return nil, err
	}
	if c.cfg.Sleep != SleepNever {
		c.planConsolidation()
	}
	return &ls.plan, nil
}

// planRelief migrates load off R4/R5 servers onto R1/R2 servers — in the
// plan. R5 servers that find no target cause the leader to wake a
// sleeping server (§4 step 5).
//
// Donors and acceptors come from the index's regime buckets rather than a
// fleet scan: relief runs before any planned move, so the projected
// regime of every server still equals its live (bucketed) regime. Members
// mid-wake are filtered by busyUntil, completing the historical active
// check. The bucket orders are deterministic but arbitrary; the stable
// sorts below impose a total order (ID tiebreak), reproducing exactly the
// sequence the historical ID-order scan fed them.
//
//ealb:hotpath
//ealb:pure
func (c *Cluster) planRelief() error {
	ls := &c.leader
	ix := &c.idx
	ls.donors = ls.donors[:0]
	for _, id := range ix.buckets[regime.R5-regime.R1] {
		if ix.busyUntil[id] <= c.now {
			// Undesirable-high: immediate attention (§4).
			ls.donors = append(ls.donors, id)
		}
	}
	for _, id := range ix.buckets[regime.R4-regime.R1] {
		// Suboptimal-high "does not require immediate attention" (§4):
		// act when the deviation is large or has persisted — the paper
		// notes the time spent in a non-optimal region matters, not just
		// being there.
		if ix.busyUntil[id] <= c.now && (ix.bounds[id].Excess(ix.load[id]) >= 0.05 || ls.r4Streak[id] >= 2) {
			ls.donors = append(ls.donors, id)
		}
	}
	if len(ls.donors) == 0 {
		// Nothing overloaded: the acceptor order would never be read.
		// Skipping its construction has no observable effect (building
		// and ordering candidates draws no randomness).
		return nil
	}
	// Most urgent first: R5 before R4, larger excess first, ID tiebreak.
	// No plan move has happened yet, so projected state equals the index
	// columns; the comparator reads them directly. The tiebreak makes the
	// order a strict total one — the sorted sequence is unique, so any
	// correct sort reproduces the historical order regardless of how the
	// buckets permuted the input.
	slices.SortStableFunc(ls.donors, ls.donorCmp)
	// Fullest acceptors first to concentrate load, materialized lazily:
	// the shed loop usually reads only the first few candidates, so the
	// full R1∪R2 membership is heapified (O(n)) but never fully sorted.
	// Keys are the flushed index loads — snapshotted, exactly what an
	// eager pre-move sort would have compared — negated for descending
	// order.
	sel := &ls.acceptorSel
	sel.heap = sel.heap[:0]
	for r := regime.R1; r <= regime.R2; r++ {
		for _, id := range ix.buckets[r-regime.R1] {
			if ix.busyUntil[id] <= c.now {
				sel.key[id] = -ix.load[id]
				sel.heap = append(sel.heap, id)
			}
		}
	}
	sel.build()

	// The leader's relief capacity per interval: spreading the initial
	// rebalancing storm over several intervals rather than resolving it
	// instantaneously (negotiations take time).
	reliefBudget := max(2, len(c.servers)/15)
	totalSheds := 0
	for _, d := range ls.donors {
		if totalSheds >= reliefBudget {
			break
		}
		urgent := c.planRegime(d) == regime.R5
		sheds := 0
		for c.planRegime(d).Overloaded() && sheds < maxShedsPerDonor && totalSheds < reliefBudget {
			moved := false
			for _, h := range c.planAppsByDemand(d) {
				dst := noServer
				for i := 0; ; i++ {
					a, ok := ls.acceptorSel.at(i)
					if !ok {
						break
					}
					if a != d && c.planFits(a, h.App.Demand, acceptToOptHigh) {
						dst = a
						break
					}
				}
				if dst == noServer && urgent {
					// R5 requires immediate attention (§4): when no
					// underloaded partner exists the leader widens the
					// search to any server with optimal-region headroom.
					dst = c.planFindAcceptor(h.App.Demand, d, acceptToOptHigh)
				}
				if dst == noServer {
					continue
				}
				c.planMove(d, dst, h)
				sheds++
				totalSheds++
				moved = true
				break
			}
			if !moved {
				break
			}
		}
		if urgent && c.planRegime(d) == regime.R5 {
			// Still undesirable and nothing accepted: wake capacity.
			if c.planWake() {
				ls.plan.woken++
			}
		}
	}
	return nil
}

// planWake picks the sleeping server with the shortest wake latency (C3
// before C6) that the plan has not already claimed, and records the
// wake-up. It reports whether any server was picked. The scan covers
// only the index's sleeper set; the (latency, ID)-lexicographic minimum
// equals the historical full scan's first-minimal-latency pick.
//
//ealb:pure
func (c *Cluster) planWake() bool {
	ls := &c.leader
	ix := &c.idx
	pick := noServer
	var pickLat units.Seconds
	for _, id := range ix.sleepers {
		if ix.busyUntil[id] > c.now || c.failed[id] || ls.plannedWake[id] {
			continue
		}
		lat := ix.wakeLat[id]
		if pick == noServer || lat < pickLat || (lat == pickLat && id < pick) {
			pick, pickLat = id, lat
		}
	}
	if pick == noServer {
		return false
	}
	ls.plannedWake[pick] = true
	ls.planned = append(ls.planned, pick)
	ls.plan.actions = append(ls.plan.actions, action{kind: actWake, src: pick})
	return true
}

// planConsolidation empties persistent R1 servers into other servers and
// slates them for sleep (§4 step 1's "transfer its own workload ... and
// then switch itself to sleep"), bounded by the leader's per-interval
// budget. The sleep state follows the 60% rule (§6) unless forced by the
// policy.
//
// Candidates are the R1 bucket's members whose projected regime is still
// R1, plus the plan-touched servers the relief pass drained *into* R1
// (their live bucket is still R4/R5); only load-shedding can lower a
// projected load, and every shed server is touched, so the two sources
// together are exactly the historical full scan's candidate set. The
// consolidation sort's total order (load, then ID) pins the final
// sequence.
//
//ealb:hotpath
//ealb:pure
func (c *Cluster) planConsolidation() {
	ls := &c.leader
	ix := &c.idx
	target := c.planSleepTarget()
	// Emptiest first — fewest migrations per reclaimed server — with the
	// budgeted consumption loop materializing the order lazily. Keys are
	// the candidates' projected loads snapshotted here, which is what an
	// eager sort running at this point would have compared throughout
	// (sorting mutates nothing); later evacuation moves can change a
	// candidate's projected load, but not its snapshotted rank.
	sel := &ls.consolSel
	sel.heap = sel.heap[:0]
	for _, id := range ix.buckets[0] { // live-R1 members
		if ix.busyUntil[id] > c.now {
			continue
		}
		if c.planRegime(id) == regime.R1 && ls.r1Streak[id] >= c.cfg.SleepHysteresis {
			sel.key[id] = c.planLoad(id)
			sel.heap = append(sel.heap, id)
		}
	}
	for _, id := range ls.touched {
		if ix.reg[id] == regime.R1 {
			continue // covered by the bucket scan above
		}
		if !c.activeID(id) {
			continue
		}
		if c.planRegime(id) == regime.R1 && ls.r1Streak[id] >= c.cfg.SleepHysteresis {
			sel.key[id] = c.planLoad(id)
			sel.heap = append(sel.heap, id)
		}
	}
	sel.build()

	budget := c.cfg.ConsolidationBudget
	slept := 0
	for i := 0; ; i++ {
		d, ok := sel.at(i)
		if !ok {
			break
		}
		if budget > 0 && slept >= budget {
			break
		}
		if !c.planEvacuation(d) {
			continue
		}
		ls.plan.actions = append(ls.plan.actions, action{kind: actSleep, src: d, target: target})
		ls.plannedSleep[d] = true
		ls.planned = append(ls.planned, d)
		slept++
	}
}

// planEvacuation finds placements for all of d's applications such that
// every acceptor stays within its optimal region. The attempt is all-or-
// nothing: a server that cannot fully empty keeps its workload (partial
// evacuation would spend migrations without reclaiming a server), and a
// failed attempt leaves the projection untouched — only the RNG advances,
// exactly as the historical implementation's discarded plan did.
//
//ealb:pure
func (c *Cluster) planEvacuation(d server.ID) bool {
	ls := &c.leader
	limit := acceptToOptMid
	if c.cfg.ConservativeConsolidation {
		limit = acceptToOptLow
	}
	ls.evacMoves = ls.evacMoves[:0]
	ok := true
	for _, h := range c.planAppsByDemand(d) {
		dst := c.planFindAcceptor(h.App.Demand, d, limit)
		if dst == noServer {
			ok = false
			break
		}
		if ls.projected[dst] == 0 {
			ls.projTouched = append(ls.projTouched, dst)
		}
		ls.projected[dst] += h.App.Demand
		ls.evacMoves = append(ls.evacMoves, evacMove{dst: dst, h: h})
	}
	// Drop the per-attempt overlay either way; on success the moves
	// commit into the durable projection instead.
	for _, id := range ls.projTouched {
		ls.projected[id] = 0
	}
	ls.projTouched = ls.projTouched[:0]
	if !ok {
		return false
	}
	for _, mv := range ls.evacMoves {
		c.planMove(d, mv.dst, mv.h)
	}
	return true
}
