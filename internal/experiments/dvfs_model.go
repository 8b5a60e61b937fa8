package experiments

import (
	"fmt"
	"sort"

	"ealb/internal/units"
)

// PowerModel maps CPU utilization to electrical power draw: the
// power-vs-utilization model the paper builds on (§2), for
// non-energy-proportional servers that draw ~50% of peak power when
// idle. server.LinearPower and the DVFS model below implement it.
type PowerModel interface {
	// Power returns the draw at utilization u in [0,1]. Implementations
	// clamp out-of-range inputs.
	Power(u units.Fraction) units.Watts
	// Idle returns the draw at zero utilization.
	Idle() units.Watts
	// Peak returns the draw at full utilization.
	Peak() units.Watts
}

// pState is one dynamic voltage and frequency scaling operating point.
// Dynamic CPU power scales as f·V² (the first-order CMOS model the DVFS
// literature the paper cites [14] builds on), so each P-state trades
// normalized performance (frequency) against a super-linear power saving.
type pState struct {
	name string
	freq units.Fraction // clock relative to nominal, in (0,1]
	volt units.Fraction // core voltage relative to nominal, in (0,1]
}

// dvfsModel augments a base power model with a ladder of P-states.
// Utilization is interpreted relative to the scaled capacity of the
// active P-state.
type dvfsModel struct {
	base   PowerModel
	states []pState // sorted by descending frequency; states[0] is nominal
	cur    int      // index of the active P-state
}

// newDVFS validates the P-state ladder and returns a DVFS model pinned to
// the nominal (fastest) state.
func newDVFS(base PowerModel, states []pState) (*dvfsModel, error) {
	if base == nil {
		return nil, fmt.Errorf("power: DVFS needs a base model")
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("power: DVFS needs at least one P-state")
	}
	for _, s := range states {
		if s.freq <= 0 || s.freq > 1 || s.volt <= 0 || s.volt > 1 {
			return nil, fmt.Errorf("power: P-state %q has out-of-range freq=%v volt=%v", s.name, s.freq, s.volt)
		}
	}
	sorted := append([]pState(nil), states...)
	// Stable keeps declaration order between equal-frequency states, so
	// a curve with duplicate frequencies still sorts reproducibly.
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].freq > sorted[j].freq })
	return &dvfsModel{base: base, states: sorted}, nil
}

// defaultPStates is a representative five-step ladder (nominal down to 60%
// clock with near-proportional voltage reduction).
func defaultPStates() []pState {
	return []pState{
		{name: "P0", freq: 1.00, volt: 1.00},
		{name: "P1", freq: 0.90, volt: 0.95},
		{name: "P2", freq: 0.80, volt: 0.90},
		{name: "P3", freq: 0.70, volt: 0.85},
		{name: "P4", freq: 0.60, volt: 0.80},
	}
}

// state returns the active P-state.
func (d *dvfsModel) state() pState { return d.states[d.cur] }

// setState activates P-state index i (0 = nominal).
func (d *dvfsModel) setState(i int) error {
	if i < 0 || i >= len(d.states) {
		return fmt.Errorf("power: P-state index %d out of range [0,%d)", i, len(d.states))
	}
	d.cur = i
	return nil
}

// capacity returns the compute capacity of the active P-state relative to
// nominal (equal to its frequency fraction).
func (d *dvfsModel) capacity() units.Fraction { return d.state().freq }

// scale returns the dynamic-power multiplier f·V² of the active state.
func (d *dvfsModel) scale() float64 {
	s := d.state()
	return float64(s.freq) * float64(s.volt) * float64(s.volt)
}

// Power implements PowerModel. Utilization u is absolute
// (relative to nominal capacity); demand beyond the scaled capacity
// saturates. Only the dynamic component (draw above idle) scales with
// f·V²; the idle floor is static.
func (d *dvfsModel) Power(u units.Fraction) units.Watts {
	cap := d.capacity()
	eff := u.Clamp()
	if eff > cap {
		eff = cap
	}
	var rel units.Fraction
	if cap > 0 {
		rel = units.Fraction(float64(eff) / float64(cap))
	}
	dyn := float64(d.base.Power(rel)-d.base.Idle()) * d.scale()
	return d.base.Idle() + units.Watts(dyn)
}

// Idle implements PowerModel.
func (d *dvfsModel) Idle() units.Watts { return d.base.Idle() }

// Peak implements PowerModel. Peak is the nominal-state full-load
// draw.
func (d *dvfsModel) Peak() units.Watts { return d.base.Peak() }

// bestStateFor returns the index of the slowest (most power-saving)
// P-state whose capacity still covers demand u, honouring the QoS
// constraint that performance must not degrade.
func (d *dvfsModel) bestStateFor(u units.Fraction) int {
	u = u.Clamp()
	best := 0
	for i, s := range d.states {
		if s.freq >= u {
			best = i
		}
	}
	return best
}
