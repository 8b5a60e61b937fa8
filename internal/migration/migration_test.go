package migration

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/units"
	"ealb/internal/vm"
)

func testVM(t *testing.T, mem units.Bytes, dirty units.Bytes) *vm.VM {
	t.Helper()
	v, err := vm.New(1, vm.Config{
		Memory:    mem,
		ImageSize: 4 * units.GB,
		CPUShare:  0.25,
		DirtyRate: dirty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Bandwidth = 0 },
		func(p *Params) { p.StopThreshold = 0 },
		func(p *Params) { p.MaxRounds = 0 },
		func(p *Params) { p.SwitchLatency = -1 },
		func(p *Params) { p.SourceOverhead = -1 },
		func(p *Params) { p.NetEnergyPerByte = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLiveQuietVMOneRound(t *testing.T) {
	// A VM dirtying almost nothing migrates in a single pre-copy round.
	v := testVM(t, 2*units.GB, 1) // 1 byte/s dirty rate
	p := DefaultParams()
	res, err := Live(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if !res.Converged {
		t.Error("quiet VM must converge")
	}
	// Round 0 time = 2 GiB / 125 MiB/s = 16.384 s.
	wantT := float64(2*units.GB) / float64(125*units.MB)
	if math.Abs(float64(res.Total)-wantT) > 0.2 {
		t.Errorf("total = %v, want ~%.2fs", res.Total, wantT)
	}
	// Downtime is essentially the switch latency.
	if res.Downtime > 0.2 {
		t.Errorf("downtime = %v, want ~switch latency", res.Downtime)
	}
}

func TestLiveRoundsShrinkGeometrically(t *testing.T) {
	// dirty/bandwidth = 0.4, so round volumes shrink by 0.4 each round.
	v := testVM(t, 2*units.GB, 50*units.MB)
	p := DefaultParams()
	p.StopThreshold = units.MB
	res, err := Live(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 3 {
		t.Fatalf("expected several rounds, got %d", res.Rounds)
	}
	for i := 1; i < len(res.RoundBytes); i++ {
		ratio := float64(res.RoundBytes[i]) / float64(res.RoundBytes[i-1])
		if math.Abs(ratio-0.4) > 0.01 {
			t.Errorf("round %d volume ratio = %v, want 0.4", i, ratio)
		}
	}
	if !res.Converged {
		t.Error("r=0.4 must converge")
	}
}

func TestLiveNonConvergentHitsRoundCap(t *testing.T) {
	// Dirty rate equal to bandwidth: the dirty set never shrinks.
	v := testVM(t, units.GB, 125*units.MB)
	p := DefaultParams()
	res, err := Live(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("dirty rate == bandwidth must not converge")
	}
	if res.Rounds != p.MaxRounds {
		t.Errorf("rounds = %d, want cap %d", res.Rounds, p.MaxRounds)
	}
	if res.Downtime <= p.SwitchLatency {
		t.Error("forced stop-and-copy must have real downtime")
	}
}

func TestLiveDowntimeBelowCold(t *testing.T) {
	v := testVM(t, 4*units.GB, 30*units.MB)
	p := DefaultParams()
	live, err := Live(v, p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Cold(v, p)
	if err != nil {
		t.Fatal(err)
	}
	if live.Downtime >= cold.Downtime {
		t.Errorf("live downtime %v not below cold %v", live.Downtime, cold.Downtime)
	}
	// But live moves more bytes (the re-copies).
	if live.Bytes <= cold.Bytes {
		t.Errorf("live bytes %v should exceed cold %v", live.Bytes, cold.Bytes)
	}
}

func TestColdDowntimeEqualsTotal(t *testing.T) {
	v := testVM(t, units.GB, 50*units.MB)
	res, err := Cold(v, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Downtime != res.Total {
		t.Error("cold migration downtime must equal total time")
	}
	if res.Bytes != units.GB {
		t.Errorf("cold bytes = %v, want exactly the resident set", res.Bytes)
	}
}

func TestEnergyComponents(t *testing.T) {
	v := testVM(t, units.GB, 1)
	p := DefaultParams()
	res, err := Live(v, p)
	if err != nil {
		t.Fatal(err)
	}
	endpoint := units.Energy(p.SourceOverhead+p.TargetOverhead, res.Total)
	net := units.Joules(float64(res.Bytes) * float64(p.NetEnergyPerByte))
	if math.Abs(float64(res.Energy-(endpoint+net))) > 1e-6 {
		t.Errorf("energy = %v, want endpoints %v + net %v", res.Energy, endpoint, net)
	}
	if res.Energy <= 0 {
		t.Error("migration must cost energy")
	}
}

func TestBiggerVMCostsMoreProperty(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint16) bool {
		memA := units.Bytes(int64(a%64)+1) * units.GB / 8
		memB := memA + units.Bytes(int64(b%64)+1)*units.GB/8
		va, err1 := vm.New(1, vm.Config{Memory: memA, ImageSize: units.GB, CPUShare: 0.2, DirtyRate: 10 * units.MB})
		vb, err2 := vm.New(2, vm.Config{Memory: memB, ImageSize: units.GB, CPUShare: 0.2, DirtyRate: 10 * units.MB})
		if err1 != nil || err2 != nil {
			return false
		}
		ra, err1 := Live(va, p)
		rb, err2 := Live(vb, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return ra.Bytes <= rb.Bytes && ra.Total <= rb.Total && ra.Energy <= rb.Energy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFasterLinkShortensMigrationProperty(t *testing.T) {
	v, _ := vm.New(1, vm.Config{Memory: 2 * units.GB, ImageSize: units.GB, CPUShare: 0.2, DirtyRate: 20 * units.MB})
	f := func(raw uint8) bool {
		slow := DefaultParams()
		slow.Bandwidth = units.Bytes(int64(raw%100)+40) * units.MB
		fast := slow
		fast.Bandwidth = slow.Bandwidth * 2
		rs, err1 := Live(v, slow)
		rf, err2 := Live(v, fast)
		if err1 != nil || err2 != nil {
			return false
		}
		return rf.Total < rs.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNilVMErrors(t *testing.T) {
	p := DefaultParams()
	if _, err := Live(nil, p); err == nil {
		t.Error("Live(nil) must error")
	}
	if _, err := Cold(nil, p); err == nil {
		t.Error("Cold(nil) must error")
	}
}

func TestLiveFraction(t *testing.T) {
	v := testVM(t, 2*units.GB, 40*units.MB)
	res, err := Live(v, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveFration <= 0.5 || res.LiveFration > 1 {
		t.Errorf("live fraction = %v, want dominated by live phase", res.LiveFration)
	}
}
