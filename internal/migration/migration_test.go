// Package migration_test checks the pre-copy live and cold VM migration
// cost model of package server through its exported API.
package migration_test

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/server"
	"ealb/internal/units"
)

func testVM(t *testing.T, mem units.Bytes, dirty units.Bytes) *server.VM {
	t.Helper()
	v, err := server.NewVM(1, server.VMConfig{
		Memory:    mem,
		CPUShare:  0.25,
		DirtyRate: dirty,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParamsValidate(t *testing.T) {
	if err := server.DefaultMigrationParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*server.MigrationParams){
		func(p *server.MigrationParams) { p.Bandwidth = 0 },
		func(p *server.MigrationParams) { p.StopThreshold = 0 },
		func(p *server.MigrationParams) { p.MaxRounds = 0 },
		func(p *server.MigrationParams) { p.SwitchLatency = -1 },
		func(p *server.MigrationParams) { p.SourceOverhead = -1 },
		func(p *server.MigrationParams) { p.NetEnergyPerByte = -1 },
		func(p *server.MigrationParams) { p.SwitchLatency = units.Seconds(math.NaN()) },
		func(p *server.MigrationParams) { p.SourceOverhead = units.Watts(math.NaN()) },
		func(p *server.MigrationParams) { p.TargetOverhead = units.Watts(math.Inf(1)) },
		func(p *server.MigrationParams) { p.NetEnergyPerByte = units.Joules(math.Inf(1)) },
	}
	for i, mutate := range bad {
		p := server.DefaultMigrationParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLiveQuietVMOneRound(t *testing.T) {
	// A VM dirtying almost nothing migrates in a single pre-copy round.
	v := testVM(t, 2*units.GB, 1) // 1 byte/s dirty rate
	p := server.DefaultMigrationParams()
	res, err := server.LiveMigration(v, p)
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

func TestLiveNonConvergentHitsRoundCap(t *testing.T) {
	// Dirty rate equal to bandwidth: the dirty set never shrinks.
	v := testVM(t, units.GB, 125*units.MB)
	p := server.DefaultMigrationParams()
	res, err := server.LiveMigration(v, p)
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
	p := server.DefaultMigrationParams()
	live, err := server.LiveMigration(v, p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := server.ColdMigration(v, p)
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
	res, err := server.ColdMigration(v, server.DefaultMigrationParams())
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
	p := server.DefaultMigrationParams()
	res, err := server.LiveMigration(v, p)
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
	p := server.DefaultMigrationParams()
	f := func(a, b uint16) bool {
		memA := units.Bytes(int64(a%64)+1) * units.GB / 8
		memB := memA + units.Bytes(int64(b%64)+1)*units.GB/8
		va, err1 := server.NewVM(1, server.VMConfig{Memory: memA, CPUShare: 0.2, DirtyRate: 10 * units.MB})
		vb, err2 := server.NewVM(2, server.VMConfig{Memory: memB, CPUShare: 0.2, DirtyRate: 10 * units.MB})
		if err1 != nil || err2 != nil {
			return false
		}
		ra, err1 := server.LiveMigration(va, p)
		rb, err2 := server.LiveMigration(vb, p)
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
	v, _ := server.NewVM(1, server.VMConfig{Memory: 2 * units.GB, CPUShare: 0.2, DirtyRate: 20 * units.MB})
	f := func(raw uint8) bool {
		slow := server.DefaultMigrationParams()
		slow.Bandwidth = units.Bytes(int64(raw%100)+40) * units.MB
		fast := slow
		fast.Bandwidth = slow.Bandwidth * 2
		rs, err1 := server.LiveMigration(v, slow)
		rf, err2 := server.LiveMigration(v, fast)
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
	p := server.DefaultMigrationParams()
	if _, err := server.LiveMigration(nil, p); err == nil {
		t.Error("LiveMigration(nil) must error")
	}
	if _, err := server.ColdMigration(nil, p); err == nil {
		t.Error("ColdMigration(nil) must error")
	}
}
