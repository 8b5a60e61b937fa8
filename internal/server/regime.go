package server

import (
	"fmt"

	"ealb/internal/units"
	"ealb/internal/xrand"
)

// Region is one of the paper's five server operating regions (§4,
// Figure 1): undesirable-low R1, suboptimal-low R2, optimal R3,
// suboptimal-high R4, and undesirable-high R5.
//
// A server is classified by its normalized load. R3 is where normalized
// performance is delivered at minimum normalized energy; R2/R4 tolerate
// deferred correction; R1/R5 demand immediate action — shed or gather
// workload, or sleep. The boundaries α^sopt,l ≤ α^opt,l ≤ α^opt,h ≤
// α^sopt,h are per-server (heterogeneous clusters draw them from the
// uniform ranges given in §4).
type Region int

// The five operating regions, in the paper's numbering.
const (
	R1 Region = iota + 1 // undesirable low
	R2                   // suboptimal low
	R3                   // optimal
	R4                   // suboptimal high
	R5                   // undesirable high
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case R1:
		return "R1"
	case R2:
		return "R2"
	case R3:
		return "R3"
	case R4:
		return "R4"
	case R5:
		return "R5"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Overloaded reports whether the region indicates excess load that should
// be shed (R4 or R5).
func (r Region) Overloaded() bool { return r == R4 || r == R5 }

// Boundaries holds one server's region thresholds on the normalized
// performance axis: α^sopt,l, α^opt,l, α^opt,h, α^sopt,h.
type Boundaries struct {
	SoptLow  units.Fraction // below: R1
	OptLow   units.Fraction // [SoptLow, OptLow): R2
	OptHigh  units.Fraction // [OptLow, OptHigh]: R3
	SoptHigh units.Fraction // (OptHigh, SoptHigh]: R4; above: R5
}

// Validate checks ordering and range of the thresholds.
func (b Boundaries) Validate() error {
	for _, f := range []units.Fraction{b.SoptLow, b.OptLow, b.OptHigh, b.SoptHigh} {
		if !f.Valid() {
			return fmt.Errorf("regime: boundary %v outside [0,1]", f)
		}
	}
	if !(b.SoptLow <= b.OptLow && b.OptLow <= b.OptHigh && b.OptHigh <= b.SoptHigh) {
		return fmt.Errorf("regime: boundaries not ordered: %+v", b)
	}
	return nil
}

// Classify returns the region for a normalized load. The optimal region
// is closed on both sides; the suboptimal regions absorb their outer
// boundary, matching the inequalities of eqs. (1)-(5).
func (b Boundaries) Classify(load units.Fraction) Region {
	load = load.Clamp()
	switch {
	case load < b.SoptLow:
		return R1
	case load < b.OptLow:
		return R2
	case load <= b.OptHigh:
		return R3
	case load <= b.SoptHigh:
		return R4
	default:
		return R5
	}
}

// OptimalTarget returns the midpoint of the optimal region — where the
// protocol aims a server's load when rebalancing.
func (b Boundaries) OptimalTarget() units.Fraction {
	return (b.OptLow + b.OptHigh) / 2
}

// Headroom returns how much additional load fits before the server leaves
// R3 upward (0 when already at or above OptHigh).
func (b Boundaries) Headroom(load units.Fraction) units.Fraction {
	load = load.Clamp()
	if load >= b.OptHigh {
		return 0
	}
	return b.OptHigh - load
}

// Excess returns how much load must be shed to re-enter R3 from above
// (0 when at or below OptHigh).
func (b Boundaries) Excess(load units.Fraction) units.Fraction {
	load = load.Clamp()
	if load <= b.OptHigh {
		return 0
	}
	return load - b.OptHigh
}

// PaperRanges holds the uniform sampling intervals for each threshold used
// by the heterogeneous model of §4: α^sopt,l ∈ [0.20,0.25], α^opt,l ∈
// [0.25,0.45], α^opt,h ∈ [0.55,0.80], α^sopt,h ∈ [0.80,0.85].
type PaperRanges struct {
	SoptLow, OptLow, OptHigh, SoptHigh [2]float64
}

// DefaultRanges returns the exact sampling intervals of §4.
func DefaultRanges() PaperRanges {
	return PaperRanges{
		SoptLow:  [2]float64{0.20, 0.25},
		OptLow:   [2]float64{0.25, 0.45},
		OptHigh:  [2]float64{0.55, 0.80},
		SoptHigh: [2]float64{0.80, 0.85},
	}
}

// Random draws one server's boundaries from the ranges using rng. The
// ranges are disjoint and ascending, so ordering holds by construction;
// Validate is still run as a belt-and-braces check.
func (p PaperRanges) Random(rng *xrand.Rand) (Boundaries, error) {
	b := Boundaries{
		SoptLow:  units.Fraction(rng.Uniform(p.SoptLow[0], p.SoptLow[1])),
		OptLow:   units.Fraction(rng.Uniform(p.OptLow[0], p.OptLow[1])),
		OptHigh:  units.Fraction(rng.Uniform(p.OptHigh[0], p.OptHigh[1])),
		SoptHigh: units.Fraction(rng.Uniform(p.SoptHigh[0], p.SoptHigh[1])),
	}
	if err := b.Validate(); err != nil {
		return Boundaries{}, err
	}
	return b, nil
}

// WithDelta builds symmetric boundaries around an optimal level: the
// optimal region is opt±δ and the suboptimal bands extend a further δ on
// each side. This is the δ = (0.05-0.1)×E_opt parameterization of §3, used
// by the δ-width ablation.
func WithDelta(opt units.Fraction, delta units.Fraction) (Boundaries, error) {
	if !opt.Valid() || delta < 0 {
		return Boundaries{}, fmt.Errorf("regime: invalid opt=%v delta=%v", opt, delta)
	}
	b := Boundaries{
		SoptLow:  (opt - 2*delta).Clamp(),
		OptLow:   (opt - delta).Clamp(),
		OptHigh:  (opt + delta).Clamp(),
		SoptHigh: (opt + 2*delta).Clamp(),
	}
	if err := b.Validate(); err != nil {
		return Boundaries{}, err
	}
	return b, nil
}
