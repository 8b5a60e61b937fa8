package experiments

import (
	"fmt"

	"ealb/internal/units"
)

// serverClass is the price-band classification of Koomey's server power
// survey, reproduced in the paper's Table 1.
type serverClass int

// Server classes, by list price.
const (
	classVolume   serverClass = iota // < $25K
	classMidRange                    // $25K - $499K
	classHighEnd                     // >= $500K
)

// String implements fmt.Stringer.
func (c serverClass) String() string {
	switch c {
	case classVolume:
		return "Vol"
	case classMidRange:
		return "Mid"
	case classHighEnd:
		return "High"
	default:
		return fmt.Sprintf("ServerClass(%d)", int(c))
	}
}

// table1Years lists the years covered by the paper's Table 1.
var table1Years = []int{2000, 2001, 2002, 2003, 2004, 2005, 2006}

// table1 holds the estimated average power use (Watts) of volume,
// mid-range, and high-end servers along the years, exactly as printed in
// the paper's Table 1 (source: Koomey [13]).
var table1 = map[serverClass][]units.Watts{
	classVolume:   {186, 193, 200, 207, 213, 219, 225},
	classMidRange: {424, 457, 491, 524, 574, 625, 675},
	classHighEnd:  {5534, 5832, 6130, 6428, 6973, 7651, 8163},
}

// table1Row returns the full 2000-2006 power series for class c.
func table1Row(c serverClass) ([]units.Watts, error) {
	row, ok := table1[c]
	if !ok {
		return nil, fmt.Errorf("power: unknown server class %v", c)
	}
	return append([]units.Watts(nil), row...), nil
}
