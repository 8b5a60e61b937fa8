package server

import (
	"math"
	"testing"

	"ealb/internal/units"
)

func testConfig(t *testing.T, id ID) Config {
	t.Helper()
	pm, err := NewLinearPower(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		ID:         id,
		Boundaries: Boundaries{SoptLow: 0.22, OptLow: 0.35, OptHigh: 0.70, SoptHigh: 0.82},
		Power:      pm,
	}
}

// testMsgEnergy prices one control message in the cost tests.
const testMsgEnergy units.Joules = 0.01

// build returns a server Reset to cfg.
func build(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := new(Server)
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

func newServer(t *testing.T) *Server {
	t.Helper()
	return build(t, testConfig(t, 1))
}

func hosted(t *testing.T, aid AppID, demand units.Fraction) Hosted {
	t.Helper()
	a, err := newApp(aid, demand, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVM(VMID(aid), VMConfig{
		Memory: units.GB, CPUShare: demand, DirtyRate: 20 * units.MB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Hosted{App: a, VM: v}
}

func TestNewValidation(t *testing.T) {
	var s Server
	cfg := testConfig(t, 1)
	cfg.Power = LinearPower{}
	if err := s.Reset(cfg); err == nil {
		t.Error("zero power model must fail")
	}
	cfg = testConfig(t, 1)
	cfg.Boundaries.SoptLow = 0.9
	if err := s.Reset(cfg); err == nil {
		t.Error("invalid boundaries must fail")
	}
}

func TestInitialState(t *testing.T) {
	s := newServer(t)
	if s.CState() != C0 {
		t.Error("server must start in C0")
	}
	if s.Load() != 0 || s.NumApps() != 0 {
		t.Error("server must start empty")
	}
	if s.Regime() != R1 {
		t.Errorf("empty server regime = %v, want R1", s.Regime())
	}
}

func TestPlaceAndLoad(t *testing.T) {
	s := newServer(t)
	if err := s.Place(hosted(t, 1, 0.3), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(hosted(t, 2, 0.25), 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(); math.Abs(float64(got)-0.55) > 1e-9 {
		t.Errorf("Load = %v, want 0.55", got)
	}
	if s.Regime() != R3 {
		t.Errorf("Regime = %v, want R3", s.Regime())
	}
	if s.NumApps() != 2 {
		t.Errorf("NumApps = %d", s.NumApps())
	}
}

func TestPlaceRejectsDuplicatesAndNil(t *testing.T) {
	s := newServer(t)
	h := hosted(t, 1, 0.3)
	if err := s.Place(h, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(h, 0); err == nil {
		t.Error("duplicate placement must fail")
	}
	if err := s.Place(Hosted{}, 0); err == nil {
		t.Error("nil pair must fail")
	}
}

func TestRemove(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.3), 0)
	_ = s.Place(hosted(t, 2, 0.2), 0)
	h, err := s.Remove(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.App.ID != 1 {
		t.Errorf("removed app %d, want 1", h.App.ID)
	}
	if s.NumApps() != 1 || math.Abs(float64(s.Load())-0.2) > 1e-9 {
		t.Errorf("after removal: apps=%d load=%v", s.NumApps(), s.Load())
	}
	if _, err := s.Remove(1); err == nil {
		t.Error("removing absent app must fail")
	}
}

func TestHostedDeterministicOrder(t *testing.T) {
	s := newServer(t)
	for i := AppID(1); i <= 5; i++ {
		_ = s.Place(hosted(t, i, 0.1), 0)
	}
	hs := s.Hosted()
	for i, h := range hs {
		if h.App.ID != AppID(i+1) {
			t.Fatalf("order not insertion order: %v", hs)
		}
	}
}

func TestRawDemandVsLoad(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.8), 0)
	_ = s.Place(hosted(t, 2, 0.6), 0)
	if s.Load() != 1 {
		t.Errorf("Load must clamp at 1, got %v", s.Load())
	}
	if math.Abs(float64(s.RawDemand())-1.4) > 1e-9 {
		t.Errorf("RawDemand = %v, want 1.4", s.RawDemand())
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.5), 0)
	// At load 0.5 the linear 100-200 model draws 150 W.
	e, err := s.AccountTo(10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(e)-1500) > 1e-9 {
		t.Errorf("10s at 150W = %v, want 1500 J", e)
	}
	if math.Abs(float64(s.Energy())-1500) > 1e-9 {
		t.Errorf("Energy = %v", s.Energy())
	}
	if _, err := s.AccountTo(5); err == nil {
		t.Error("accounting backwards must fail")
	}
}

func TestSleepWakeEnergyFlow(t *testing.T) {
	s := newServer(t)
	if err := s.Sleep(C3, 100); err != nil {
		t.Fatal(err)
	}
	// 100s idle at 100 W before sleeping.
	if math.Abs(float64(s.Energy())-10000) > 100 {
		t.Errorf("pre-sleep energy = %v, want ~10000 J (+ enter cost)", s.Energy())
	}
	if !s.Sleeping() {
		t.Error("server must be sleeping")
	}
	// 1000s parked in C3 at 0.15×200 = 30 W.
	pre := s.Energy()
	if _, err := s.AccountTo(1100); err != nil {
		t.Fatal(err)
	}
	slept := float64(s.Energy() - pre)
	if math.Abs(slept-30000) > 1 {
		t.Errorf("sleep segment = %v J, want 30000", slept)
	}
	ready, err := s.Wake(1100)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 1130 { // C3 wake latency 30s
		t.Errorf("wake completes at %v, want 1130", ready)
	}
	if s.Sleeping() {
		t.Error("server must be awake")
	}
}

func TestSleepRejectsLoadedServer(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.3), 0)
	if err := s.Sleep(C6, 10); err == nil {
		t.Error("sleeping a loaded server must fail")
	}
}

func TestPlaceRejectsSleepingServer(t *testing.T) {
	s := newServer(t)
	if err := s.Sleep(C6, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(hosted(t, 1, 0.3), 10); err == nil {
		t.Error("placing on a sleeping server must fail")
	}
	// After wake completes, placement works again.
	ready, err := s.Wake(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Place(hosted(t, 1, 0.3), ready-1); err == nil {
		t.Error("placing during wake transition must fail")
	}
	if err := s.Place(hosted(t, 1, 0.3), ready); err != nil {
		t.Errorf("placing after wake: %v", err)
	}
}

func TestWakeLatency(t *testing.T) {
	s := newServer(t)
	_ = s.Sleep(C6, 0)
	if lat := s.WakeLatency(); lat != 260 {
		t.Errorf("C6 wake latency = %v, want 260s", lat)
	}
}

func TestEvaluate(t *testing.T) {
	s := newServer(t)
	h := hosted(t, 1, 0.5)
	_ = s.Place(h, 0)
	if s.Regime() != R3 {
		t.Fatalf("regime %v, want R3", s.Regime())
	}
	p := DefaultMigrationParams()
	q := s.QCost(p, testMsgEnergy)
	if want := LiveMigrationCost(h.VM, p).Energy; q != want {
		t.Errorf("q_k = %v, want the live migration of the only VM, %v", q, want)
	}
	if q <= PCost {
		t.Errorf("horizontal cost %v must exceed vertical cost %v (the premise of Fig. 3)", q, PCost)
	}
	if JCost(s.Regime(), testMsgEnergy) <= 0 {
		t.Error("leader communication must cost something")
	}
	// q_k prices the VM of the largest demand: smaller apps leave it
	// in place, removing it hands q_k to the next largest.
	big := hosted(t, 2, 0.3)
	big.VM.Memory = 3 * units.GB
	small := hosted(t, 3, 0.1)
	_ = s.Place(big, 0)
	_ = s.Place(small, 0)
	if got := s.QCost(p, testMsgEnergy); got != q {
		t.Errorf("q_k = %v after placing smaller apps, want %v", got, q)
	}
	if _, err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	if got, want := s.QCost(p, testMsgEnergy), LiveMigrationCost(big.VM, p).Energy; got != want {
		t.Errorf("q_k = %v after removing the largest app, want %v", got, want)
	}
}

// TestQCostRepricesReturningVM: the q_k cache is keyed by the VM
// pointer alone, so a VM rewritten while it was off the server must be
// priced afresh when Place brings it back, and Reset must drop the
// cache. The cluster rewrites CPUShare on every move; the price reads
// Memory and DirtyRate, so the test rewrites those too.
func TestQCostRepricesReturningVM(t *testing.T) {
	s := newServer(t)
	big, small := hosted(t, 1, 0.4), hosted(t, 2, 0.1)
	for _, h := range []Hosted{big, small} {
		if err := s.Place(h, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := DefaultMigrationParams()
	before := s.QCost(p, testMsgEnergy)
	if want := LiveMigrationCost(big.VM, p).Energy; before != want {
		t.Fatalf("q_k = %v, want the largest VM's price %v", before, want)
	}

	h, err := s.Remove(big.App.ID)
	if err != nil {
		t.Fatal(err)
	}
	h.VM.CPUShare = 0.35
	h.VM.Memory = 3 * units.GB
	h.VM.DirtyRate = 60 * units.MB
	if err := s.Place(h, 0); err != nil {
		t.Fatal(err)
	}
	want := LiveMigrationCost(h.VM, p).Energy
	if want == before {
		t.Fatal("the rewrite did not change the price; the test shows nothing")
	}
	if got := s.QCost(p, testMsgEnergy); got != want {
		t.Errorf("q_k = %v after the VM came back rewritten, want a fresh %v (stale %v)", got, want, before)
	}

	if err := s.Reset(testConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if s.qVM != nil || s.qCost != 0 {
		t.Errorf("Reset kept the q_k cache: VM %p, cost %v", s.qVM, s.qCost)
	}
}

func TestEvaluateEmptyServer(t *testing.T) {
	s := newServer(t)
	if s.Regime() != R1 {
		t.Errorf("empty server regime %v, want R1", s.Regime())
	}
	if q := s.QCost(DefaultMigrationParams(), testMsgEnergy); q != testMsgEnergy {
		t.Errorf("empty q_k = %v, want one control message %v", q, testMsgEnergy)
	}
}

func TestEvaluateJCostGrowsOffOptimal(t *testing.T) {
	opt := JCost(R3, testMsgEnergy)
	if opt != 2*testMsgEnergy {
		t.Errorf("R3 j_k = %v, want two messages", opt)
	}
	for _, r := range []Region{R1, R2, R4, R5} {
		if bad := JCost(r, testMsgEnergy); bad <= opt {
			t.Errorf("%v j_k %v not above R3's %v: off-optimal regimes imply negotiation traffic", r, bad, opt)
		}
	}
}

func TestAppsByDemand(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.1), 0)
	_ = s.Place(hosted(t, 2, 0.4), 0)
	_ = s.Place(hosted(t, 3, 0.2), 0)
	hs := s.Hosted()
	SortByDemand(hs)
	if hs[0].App.ID != 2 || hs[1].App.ID != 3 || hs[2].App.ID != 1 {
		t.Errorf("shed order wrong: %v %v %v", hs[0].App.ID, hs[1].App.ID, hs[2].App.ID)
	}
}

func TestSkipTo(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 1, 0.5), 0)
	if _, err := s.AccountTo(10); err != nil {
		t.Fatal(err)
	}
	before := s.Energy()
	// A powered-off gap: no energy charged.
	if err := s.SkipTo(100); err != nil {
		t.Fatal(err)
	}
	if s.Energy() != before {
		t.Errorf("SkipTo charged energy: %v -> %v", before, s.Energy())
	}
	// Accounting resumes from the skip point.
	if _, err := s.AccountTo(110); err != nil {
		t.Fatal(err)
	}
	added := float64(s.Energy() - before)
	if added < 1499 || added > 1501 { // 10s at 150W
		t.Errorf("post-skip segment = %v J, want 1500", added)
	}
	if err := s.SkipTo(50); err == nil {
		t.Error("skipping backwards must fail")
	}
}

func TestLookup(t *testing.T) {
	s := newServer(t)
	_ = s.Place(hosted(t, 7, 0.2), 0)
	if _, ok := s.Lookup(7); !ok {
		t.Error("Lookup(7) must find the app")
	}
	if _, ok := s.Lookup(8); ok {
		t.Error("Lookup(8) must miss")
	}
}

func TestCrashClosesAccountAndRebootsACPI(t *testing.T) {
	s := newServer(t)
	// Park the server, let the entry complete, then account some sleep
	// time before the crash: the final sleep segment must be charged.
	if err := s.Sleep(C3, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AccountTo(200); err != nil {
		t.Fatal(err)
	}
	e200 := s.Energy()
	if err := s.Crash(300); err != nil {
		t.Fatal(err)
	}
	// C3 draws 0.15 × 200 W = 30 W; the 100 s segment to the crash is 3 kJ.
	if got := float64(s.Energy() - e200); math.Abs(got-3000) > 1e-6 {
		t.Errorf("crash charged %v J for the final sleep segment, want 3000", got)
	}
	if s.Sleeping() || s.CState() != C0 || s.CStateBusy(300) {
		t.Errorf("crashed server not rebooted: state=%v busy=%v", s.CState(), s.CStateBusy(300))
	}
	// After the (caller-modeled) outage the server hosts again.
	if err := s.SkipTo(500); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(hosted(t, 1, 0.2), 500); err != nil {
		t.Errorf("crashed-then-repaired server cannot host: %v", err)
	}
}

func TestCrashMidTransition(t *testing.T) {
	s := newServer(t)
	if err := s.Sleep(C6, 100); err != nil {
		t.Fatal(err)
	}
	// Entry in flight (C6 entry takes 5 s): a crash abandons it.
	if !s.CStateBusy(102) {
		t.Fatal("C6 entry should be in flight")
	}
	if err := s.Crash(102); err != nil {
		t.Fatal(err)
	}
	if s.Sleeping() || s.CStateBusy(102) {
		t.Error("crash left the sleep entry armed")
	}
}
