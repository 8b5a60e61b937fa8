package power

import (
	"fmt"

	"ealb/internal/units"
)

// ServerClass is the price-band classification of Koomey's server power
// survey, reproduced in the paper's Table 1.
type ServerClass int

// Server classes, by list price.
const (
	Volume   ServerClass = iota // < $25K
	MidRange                    // $25K - $499K
	HighEnd                     // >= $500K
)

// String implements fmt.Stringer.
func (c ServerClass) String() string {
	switch c {
	case Volume:
		return "Vol"
	case MidRange:
		return "Mid"
	case HighEnd:
		return "High"
	default:
		return fmt.Sprintf("ServerClass(%d)", int(c))
	}
}

// Table1Years lists the years covered by the paper's Table 1.
var Table1Years = []int{2000, 2001, 2002, 2003, 2004, 2005, 2006}

// table1 holds the estimated average power use (Watts) of volume,
// mid-range, and high-end servers along the years, exactly as printed in
// the paper's Table 1 (source: Koomey [13]).
var table1 = map[ServerClass][]units.Watts{
	Volume:   {186, 193, 200, 207, 213, 219, 225},
	MidRange: {424, 457, 491, 524, 574, 625, 675},
	HighEnd:  {5534, 5832, 6130, 6428, 6973, 7651, 8163},
}

// Table1Row returns the full 2000-2006 power series for class c.
func Table1Row(c ServerClass) ([]units.Watts, error) {
	row, ok := table1[c]
	if !ok {
		return nil, fmt.Errorf("power: unknown server class %v", c)
	}
	return append([]units.Watts(nil), row...), nil
}
