// Package queueing_test checks the M/M/c model of package policy through
// its exported API.
package queueing_test

import (
	"math"
	"testing"
	"testing/quick"

	"ealb/internal/policy"
)

func TestValidate(t *testing.T) {
	bad := []policy.MMc{
		{Lambda: -1, Mu: 1, C: 1},
		{Lambda: 1, Mu: 0, C: 1},
		{Lambda: 1, Mu: 1, C: 0},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid system accepted", i)
		}
	}
	if err := (policy.MMc{Lambda: 1, Mu: 2, C: 1}).Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestMM1ClosedForm(t *testing.T) {
	// For c=1, Erlang C reduces to ρ, wait to ρ/(μ-λ), response to 1/(μ-λ).
	q := policy.MMc{Lambda: 3, Mu: 5, C: 1}
	rho := q.Utilization()
	pc, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-rho) > 1e-12 {
		t.Errorf("M/M/1 ErlangC = %v, want ρ=%v", pc, rho)
	}
	rt, err := q.MeanResponse()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt-1.0/(5-3)) > 1e-12 {
		t.Errorf("M/M/1 response = %v, want 0.5", rt)
	}
}

func TestKnownErlangCValue(t *testing.T) {
	// Classic textbook point: λ=2, μ=1, c=3 → a=2, ρ=2/3,
	// P(wait) = 0.444..., Wq = 4/9.
	q := policy.MMc{Lambda: 2, Mu: 1, C: 3}
	pc, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pc-4.0/9) > 1e-9 {
		t.Errorf("ErlangC = %v, want 4/9", pc)
	}
	wq, err := q.MeanWait()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wq-4.0/9) > 1e-9 {
		t.Errorf("Wq = %v, want 4/9", wq)
	}
}

func TestUnstableSystem(t *testing.T) {
	q := policy.MMc{Lambda: 10, Mu: 1, C: 5}
	if q.Stable() {
		t.Fatal("ρ=2 cannot be stable")
	}
	pc, err := q.ErlangC()
	if err != nil || pc != 1 {
		t.Errorf("unstable ErlangC = %v, want 1", pc)
	}
	wq, err := q.MeanWait()
	if err != nil || !math.IsInf(wq, 1) {
		t.Errorf("unstable wait = %v, want +Inf", wq)
	}
	rt, err := q.MeanResponse()
	if err != nil || !math.IsInf(rt, 1) {
		t.Errorf("unstable response = %v, want +Inf", rt)
	}
}

func TestMoreServersNeverHurtProperty(t *testing.T) {
	f := func(lRaw, cRaw uint8) bool {
		lambda := float64(lRaw%50) + 1
		c := int(cRaw%20) + 1
		q1 := policy.MMc{Lambda: lambda, Mu: 2, C: c}
		q2 := policy.MMc{Lambda: lambda, Mu: 2, C: c + 1}
		rt1, err1 := q1.MeanResponse()
		rt2, err2 := q2.MeanResponse()
		if err1 != nil || err2 != nil {
			return false
		}
		return rt2 <= rt1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErlangCStableForLargePools(t *testing.T) {
	// Factorial-based implementations overflow near c=170; the iterative
	// form must stay finite and within [0,1] for big farms.
	q := policy.MMc{Lambda: 450, Mu: 1, C: 500}
	pc, err := q.ErlangC()
	if err != nil {
		t.Fatal(err)
	}
	if pc < 0 || pc > 1 || math.IsNaN(pc) {
		t.Errorf("ErlangC(c=500) = %v", pc)
	}
}

func TestMinServers(t *testing.T) {
	// λ=100 req/s, μ=10/s per server, target 150 ms (service is 100 ms).
	c, ok, err := policy.MinServers(100, 10, 0.15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("target must be achievable")
	}
	// Verify minimality: c meets the target, c-1 does not.
	qc := policy.MMc{Lambda: 100, Mu: 10, C: c}
	rt, _ := qc.MeanResponse()
	if rt > 0.15 {
		t.Errorf("c=%d response %v misses target", c, rt)
	}
	if c > 1 {
		qprev := policy.MMc{Lambda: 100, Mu: 10, C: c - 1}
		if qprev.Stable() {
			rtPrev, _ := qprev.MeanResponse()
			if rtPrev <= 0.15 {
				t.Errorf("c-1=%d already meets the target (%v): not minimal", c-1, rtPrev)
			}
		}
	}
	// Unachievable target.
	_, ok, err = policy.MinServers(100, 10, 0.0001, 50)
	if err != nil || ok {
		t.Error("sub-service-time target must be unachievable")
	}
	if _, _, err := policy.MinServers(-1, 1, 1, 10); err == nil {
		t.Error("invalid inputs must error")
	}
}
