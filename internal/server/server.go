// Package server models one cluster member: the paper's server S_k.
//
// Per §4, a server maintains static information (its ID and the regime
// boundaries α^sopt,l_k … α^sopt,h_k) and dynamic information (number of
// applications, load, operating regime, CPU sleep state). At the end of
// each reallocation interval it evaluates the regime for the next interval
// and computes the costs for horizontal scaling q_k(t+τ), vertical scaling
// p_k(t+τ), and leader communication j_k(t+τ). The server also owns its
// energy account: the integral of its power draw — operational draw from
// the power model while running, sleep-state draw from the ACPI table
// while parked, plus transition energy.
//
// The package holds the whole server model: the ACPI C-states and their
// transition bookkeeping (acpi.go, acpi_manager.go, breakeven.go), the
// hosted applications and the VMs that run them (app.go, vm.go), the R1-R5
// operating regions (regime.go), the VM migration cost model
// (migration.go), and the power curve (power.go).
package server

import (
	"fmt"

	"ealb/internal/units"
)

// ID identifies a server within its cluster.
type ID int

// Hosted pairs an application with the VM that runs it.
type Hosted struct {
	App *App
	VM  *VM
}

// Config assembles a server's static configuration.
type Config struct {
	ID         ID
	Boundaries Boundaries
	Power      LinearPower
}

// Server is one simulated cluster member. It holds only what the
// per-interval walks read, all inline — no pointer but the hosted list
// and the last priced VM — so a cluster can lay its servers out as one
// contiguous slab.
type Server struct {
	id         ID
	boundaries Boundaries
	pm         LinearPower
	acpi       acpiManager

	// hosted holds the application/VM pairs in insertion order — the
	// canonical demand summation order. Hosted sets are small (a handful
	// of apps per server), so linear scans beat a map on both time and
	// steady-state allocations (map bucket growth in Place was the last
	// per-interval allocator at 10⁴ servers).
	hosted []Hosted

	// raw memoizes RawDemand: the insertion-ordered demand sum. Place
	// extends the sum exactly (appending a term to a left-to-right float
	// sum), Remove and in-place demand mutation (MarkDemandDirty)
	// invalidate it. The recomputation runs the identical ordered sum, so
	// memoization never changes a produced bit.
	raw   units.Fraction
	rawOK bool

	// qVM/qCost cache the live-migration cost of the last q_k pricing,
	// keyed by the VM pointer alone. LiveMigrationCost is a pure function
	// of the VM and the migration params, which the caller keeps fixed
	// between Resets. A hosted VM is never rewritten in place (the
	// cluster sets CPUShare only while the VM moves, just before Place),
	// so Place clears the cache when it receives qVM, and pricing the
	// same VM again reuses the previous result even after demand
	// evolution moved the rest of the server.
	qVM   *VM
	qCost units.Joules

	energy      units.Joules
	lastAccount units.Seconds
}

// Reset seeds the server in place for a fresh simulation: new static
// configuration, no hosted applications, zeroed energy account, in C0
// with nothing armed. The zero Server is not usable until Reset. Reset
// keeps only the hosted list's capacity, which is what lets a sweep
// rebuild a 10^5-server cluster in place without allocating per server;
// a Reset server is otherwise indistinguishable from a fresh one.
func (s *Server) Reset(cfg Config) error {
	if cfg.Power.Peak() <= 0 {
		return fmt.Errorf("server %d: non-positive peak power %v", cfg.ID, cfg.Power.Peak())
	}
	if err := cfg.Boundaries.Validate(); err != nil {
		return fmt.Errorf("server %d: %w", cfg.ID, err)
	}
	// A rebuild may hand the same *VM address a different memory size
	// or dirty rate (arena reuse), and may change the migration params,
	// so the q_k cache goes with everything else.
	*s = Server{
		id:         cfg.ID,
		boundaries: cfg.Boundaries,
		pm:         cfg.Power,
		hosted:     s.hosted[:0],
		rawOK:      true,
	}
	return nil
}

// ID returns the server's identifier.
func (s *Server) ID() ID { return s.id }

// Boundaries returns the server's regime thresholds.
func (s *Server) Boundaries() Boundaries { return s.boundaries }

// PowerModel returns the server's power model.
func (s *Server) PowerModel() LinearPower { return s.pm }

// CState returns the current ACPI state.
func (s *Server) CState() CState { return s.acpi.state }

// Sleeping reports whether the server is in any sleep state.
func (s *Server) Sleeping() bool { return s.acpi.state.Sleeping() }

// CStateBusy reports whether an ACPI transition (sleep entry or wake-up)
// is still in flight at time now; a busy server cannot take part in the
// reallocation protocol.
func (s *Server) CStateBusy(now units.Seconds) bool { return s.acpi.busy(now) }

// ReadyAt returns when the in-flight ACPI transition (if any) completes;
// zero when nothing is armed. CStateBusy(now) ⇔ now < ReadyAt().
func (s *Server) ReadyAt() units.Seconds { return s.acpi.busyUntil }

// NumApps returns the number of hosted applications.
func (s *Server) NumApps() int { return len(s.hosted) }

// Load returns the server's normalized load: the sum of hosted application
// demands, clamped to capacity.
func (s *Server) Load() units.Fraction {
	return s.RawDemand().Clamp()
}

// RawDemand returns the unclamped demand sum; above 1 the server is
// saturated and applications are being throttled (an SLA concern).
// Summation follows insertion order so results are bit-for-bit
// reproducible. The sum is memoized; callers that mutate a hosted
// application's demand in place must invalidate it via MarkDemandDirty.
//
//ealb:hotpath
func (s *Server) RawDemand() units.Fraction {
	if !s.rawOK {
		var sum units.Fraction
		for i := range s.hosted {
			sum += s.hosted[i].App.Demand
		}
		s.raw = sum
		s.rawOK = true
	}
	return s.raw
}

// MarkDemandDirty invalidates the memoized demand sum after a hosted
// application's demand was mutated in place (the cluster's
// demand-evolution step does this). The next RawDemand call recomputes
// from the hosted list in insertion order.
func (s *Server) MarkDemandDirty() { s.rawOK = false }

// Regime classifies the server's current load (§4 eqs. 1-5).
func (s *Server) Regime() Region { return s.boundaries.Classify(s.Load()) }

// Hosted returns the hosted pairs in deterministic (insertion) order.
func (s *Server) Hosted() []Hosted {
	return s.AppendHosted(make([]Hosted, 0, len(s.hosted)))
}

// AppendHosted appends the hosted pairs in insertion order to buf and
// returns the extended slice — the allocation-free accessor the cluster's
// per-interval loops use with a reused scratch buffer.
func (s *Server) AppendHosted(buf []Hosted) []Hosted {
	return append(buf, s.hosted...)
}

// Lookup returns the hosted pair for an application ID.
func (s *Server) Lookup(id AppID) (Hosted, bool) {
	for i := range s.hosted {
		if s.hosted[i].App.ID == id {
			return s.hosted[i], true
		}
	}
	return Hosted{}, false
}

// GrowHosted makes room in the hosted list for n more applications, so
// the next n Places do not reallocate it. A cluster calls it while
// populating a server whose app count it already knows. It allocates
// once in every build mode; slices.Grow allocates twice under -race.
func (s *Server) GrowHosted(n int) {
	if n > cap(s.hosted)-len(s.hosted) {
		hosted := make([]Hosted, len(s.hosted), len(s.hosted)+n)
		copy(hosted, s.hosted)
		s.hosted = hosted
	}
}

// Place adds an application (and its VM) to the server. The server must
// be running; the paper's protocol wakes a server before directing load
// to it.
func (s *Server) Place(h Hosted, now units.Seconds) error {
	if h.App == nil || h.VM == nil {
		return fmt.Errorf("server %d: placing nil app or VM", s.id)
	}
	if s.Sleeping() {
		return fmt.Errorf("server %d: cannot place app %d on a sleeping server (%v)", s.id, h.App.ID, s.CState())
	}
	if s.acpi.busy(now) {
		return fmt.Errorf("server %d: still waking until %v", s.id, s.acpi.busyUntil)
	}
	for i := range s.hosted {
		if s.hosted[i].App.ID == h.App.ID {
			return fmt.Errorf("server %d: app %d already hosted", s.id, h.App.ID)
		}
	}
	s.hosted = append(s.hosted, h)
	if h.VM == s.qVM {
		// The VM left and came back, with its CPUShare possibly
		// rewritten on the way.
		s.qVM = nil
	}
	if s.rawOK {
		// Appending a term to a left-to-right float sum extends it
		// exactly: raw + demand is bit-identical to recomputing the
		// insertion-ordered sum with the new last element.
		s.raw += h.App.Demand
	}
	return nil
}

// Remove detaches an application from the server and returns its pair.
// Unlike Place it invalidates the memoized demand sum: splicing a term
// out of the middle of an ordered float sum reorders the additions, so
// only a fresh left-to-right recomputation is bit-reproducible.
func (s *Server) Remove(id AppID) (Hosted, error) {
	for i := range s.hosted {
		if s.hosted[i].App.ID == id {
			h := s.hosted[i]
			s.hosted = append(s.hosted[:i], s.hosted[i+1:]...)
			s.rawOK = false
			return h, nil
		}
	}
	return Hosted{}, fmt.Errorf("server %d: app %d not hosted", s.id, id)
}

// AccountTo integrates the server's power draw up to time now and returns
// the energy added. Running draw comes from the power model at the
// current load; sleeping draw from the ACPI table. The caller must invoke
// it whenever load or state is about to change so the integral uses the
// correct power level for each segment.
//
//ealb:hotpath
func (s *Server) AccountTo(now units.Seconds) (units.Joules, error) {
	if now < s.lastAccount {
		return 0, fmt.Errorf("server %d: accounting backwards from %v to %v", s.id, s.lastAccount, now)
	}
	d := now - s.lastAccount
	var p units.Watts
	if s.Sleeping() {
		p = s.acpi.sleepPower(s.pm.peakW)
	} else {
		p = s.pm.Power(s.Load())
	}
	e := units.Energy(p, d)
	s.energy += e
	s.lastAccount = now
	return e, nil
}

// Energy returns the cumulative energy account including ACPI transition
// costs.
//
//ealb:hotpath
func (s *Server) Energy() units.Joules { return s.energy + s.acpi.transitionEnergy }

// SkipTo advances the accounting clock to now without charging energy —
// used for periods in which the server is powered off entirely (crashed
// and awaiting repair), when neither the power model nor the ACPI sleep
// table applies.
func (s *Server) SkipTo(now units.Seconds) error {
	if now < s.lastAccount {
		return fmt.Errorf("server %d: skipping backwards from %v to %v", s.id, s.lastAccount, now)
	}
	s.lastAccount = now
	return nil
}

// Crash models a hard power loss at time now. The energy account is
// closed at the pre-crash draw (sleep-state draw if the server was
// parked — the segment since the last accounting was really spent), and
// any in-flight ACPI transition is abandoned: the server is left in C0
// with nothing armed, so when the owner later returns it to service it
// provably reboots fresh rather than resuming a half-done sleep entry or
// wake-up. The caller accounts the outage itself (cluster.FailServer
// pairs Crash with SkipTo until Repair).
func (s *Server) Crash(now units.Seconds) error {
	if _, err := s.AccountTo(now); err != nil {
		return err
	}
	s.acpi.crash()
	return nil
}

// Sleep accounts energy to now and parks the server in target. A loaded
// server cannot sleep — the protocol must migrate its workload away first.
func (s *Server) Sleep(target CState, now units.Seconds) error {
	if s.NumApps() > 0 {
		return fmt.Errorf("server %d: cannot sleep with %d hosted apps", s.id, s.NumApps())
	}
	if _, err := s.AccountTo(now); err != nil {
		return err
	}
	_, err := s.acpi.sleep(target, now, s.pm.peakW)
	return err
}

// Wake accounts energy to now and begins the wake transition; the server
// is operational at the returned time.
func (s *Server) Wake(now units.Seconds) (units.Seconds, error) {
	if _, err := s.AccountTo(now); err != nil {
		return 0, err
	}
	return s.acpi.wake(now, s.pm.peakW)
}

// WakeLatency returns how long a wake from the current state takes.
func (s *Server) WakeLatency() units.Seconds { return specTable[s.acpi.state].wakeLatency }

// PCost is the §4 estimate p_k of one vertical scaling action: a local
// hypervisor reconfiguration, no data movement, so a small fixed cost.
const PCost units.Joules = 0.5

// QCost is the §4 estimate q_k of one horizontal scaling action for the
// next interval: migrating the server's largest VM — the one the
// negotiation step would move first — under p, or, with nothing to
// migrate, one control message of energy msg (a minimal image start).
// p must have passed Validate and stay the same between Resets, and a
// VM may be rewritten only while it is off this server; the
// live-migration price is cached per VM.
//
//ealb:hotpath
func (s *Server) QCost(p MigrationParams, msg units.Joules) units.Joules {
	v := s.largestVM()
	if v == nil {
		return msg
	}
	if v != s.qVM {
		s.qVM, s.qCost = v, LiveMigrationCost(v, p).Energy
	}
	return s.qCost
}

// JCost is the §4 estimate j_k of a server's leader communication over
// the next interval when it sits in region r: one report plus one
// candidate-list round trip, plus two negotiation messages off the
// optimal region, each of energy msg.
func JCost(r Region, msg units.Joules) units.Joules {
	msgs := 2.0
	if r != R3 {
		msgs += 2 // negotiation traffic
	}
	return units.Joules(msgs * float64(msg))
}

// largestVM returns the hosted VM with the largest CPU share, or nil.
func (s *Server) largestVM() *VM {
	var best *VM
	var bestShare units.Fraction
	for i := range s.hosted {
		if best == nil || s.hosted[i].App.Demand > bestShare {
			best, bestShare = s.hosted[i].VM, s.hosted[i].App.Demand
		}
	}
	return best
}

// SortByDemand stable-sorts hosted pairs by descending demand in place,
// the order in which the protocol sheds load (largest first empties a
// server in the fewest migrations). Stability matters for
// reproducibility: pairs with equal demand keep their insertion order,
// so the shed order — and with it every downstream RNG draw — is a pure
// function of the hosted set. The insertion sort is allocation-free
// (sort.SliceStable's closure and reflect-based swapper both escape) and
// hosted lists are short, so O(n²) never bites.
func SortByDemand(hs []Hosted) {
	for i := 1; i < len(hs); i++ {
		h := hs[i]
		j := i - 1
		for j >= 0 && hs[j].App.Demand < h.App.Demand {
			hs[j+1] = hs[j]
			j--
		}
		hs[j+1] = h
	}
}

// At returns the hosted pair at position i in placement order. Together
// with NumApps it lets the demand-evolution pass walk a server's
// applications without materializing a copy; callers that migrate the
// current entry away must not advance i (the splice shifts the
// remaining entries left by one, preserving their relative order).
func (s *Server) At(i int) Hosted { return s.hosted[i] }
