package cluster

import (
	"fmt"

	"ealb/internal/stats"
)

// The scaling ledger records the application-scaling decisions the
// protocol makes and derives the statistic the paper's Figure 3 and
// Table 2 report: the per-interval ratio of high-cost in-cluster
// (horizontal) decisions to low-cost local (vertical) decisions.
//
// Vertical scaling grants an application more resources on its current
// server — cheap, no data moves. Horizontal (in-cluster) scaling involves
// the leader, a target server, and a VM transfer — expensive (§5,
// "High-cost versus low-cost application scaling").

// decisionKind distinguishes the two scaling paths.
type decisionKind int

// Decision kinds.
const (
	// vertical is a local decision: the VM acquires resources from its
	// own server.
	vertical decisionKind = iota
	// horizontal is an in-cluster decision: load moves to another server
	// (VM migration or remote placement).
	horizontal
)

// String implements fmt.Stringer.
func (k decisionKind) String() string {
	switch k {
	case vertical:
		return "vertical(local)"
	case horizontal:
		return "horizontal(in-cluster)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counts tallies the decisions of one reallocation interval. It is
// embedded in IntervalStats' pinned JSON encoding, so the wire names are
// explicit (and equal to the historical field names).
//
//ealb:digest
type Counts struct {
	Local     int `json:"Local"`     // vertical decisions
	InCluster int `json:"InCluster"` // horizontal decisions
}

// ratio returns in-cluster/local. When no local decision occurred in the
// interval the denominator is taken as 1 so the series stays finite (the
// paper's plots likewise show finite spikes on quiet intervals).
func (c Counts) ratio() float64 {
	den := c.Local
	if den == 0 {
		den = 1
	}
	return float64(c.InCluster) / float64(den)
}

// Ledger accumulates decision counts across reallocation intervals. The
// zero value is an empty ledger.
type Ledger struct {
	closed []Counts
	cur    Counts
}

// reset discards all recorded decisions, retaining the closed-interval
// slice's capacity so a rebuilt simulation reuses it.
func (l *Ledger) reset() {
	l.closed = l.closed[:0]
	l.cur = Counts{}
}

// record adds n decisions of kind k to the current interval. Negative n
// panics: decisions cannot be unmade.
func (l *Ledger) record(k decisionKind, n int) {
	if n < 0 {
		panic("scaling: negative decision count")
	}
	switch k {
	case vertical:
		l.cur.Local += n
	case horizontal:
		l.cur.InCluster += n
	default:
		panic(fmt.Sprintf("scaling: unknown kind %d", int(k)))
	}
}

// closeInterval finalizes the current interval and returns its counts.
func (l *Ledger) closeInterval() Counts {
	c := l.cur
	l.closed = append(l.closed, c)
	l.cur = Counts{}
	return c
}

// ratioSeries returns the per-interval in-cluster/local ratios — the
// series plotted in Figure 3.
func (l *Ledger) ratioSeries() []float64 {
	out := make([]float64, len(l.closed))
	for i, c := range l.closed {
		out[i] = c.ratio()
	}
	return out
}

// MeanRatio returns the average of the ratio series (Table 2's "Average
// ratio" column).
func (l *Ledger) MeanRatio() float64 { return stats.Mean(l.ratioSeries()) }

// StdDevRatio returns the sample standard deviation of the ratio series
// (Table 2's "Standard deviation" column).
func (l *Ledger) StdDevRatio() float64 { return stats.SampleStdDev(l.ratioSeries()) }
