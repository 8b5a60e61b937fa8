// Package scaling records the application-scaling decisions the cluster
// protocol makes and derives the statistic the paper's Figure 3 and
// Table 2 report: the per-interval ratio of high-cost in-cluster
// (horizontal) decisions to low-cost local (vertical) decisions.
//
// Vertical scaling grants an application more resources on its current
// server — cheap, no data moves. Horizontal (in-cluster) scaling involves
// the leader, a target server, and a VM transfer — expensive (§5,
// "High-cost versus low-cost application scaling").
package scaling

import (
	"fmt"

	"ealb/internal/stats"
)

// Kind distinguishes the two scaling paths.
type Kind int

// Decision kinds.
const (
	// Vertical is a local decision: the VM acquires resources from its
	// own server.
	Vertical Kind = iota
	// Horizontal is an in-cluster decision: load moves to another server
	// (VM migration or remote placement).
	Horizontal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Vertical:
		return "vertical(local)"
	case Horizontal:
		return "horizontal(in-cluster)"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counts tallies the decisions of one reallocation interval. It is
// embedded in cluster.IntervalStats' pinned JSON encoding, so the wire
// names are explicit (and equal to the historical field names).
//
//ealb:digest
type Counts struct {
	Local     int `json:"Local"`     // vertical decisions
	InCluster int `json:"InCluster"` // horizontal decisions
}

// Ratio returns in-cluster/local. When no local decision occurred in the
// interval the denominator is taken as 1 so the series stays finite (the
// paper's plots likewise show finite spikes on quiet intervals).
func (c Counts) Ratio() float64 {
	den := c.Local
	if den == 0 {
		den = 1
	}
	return float64(c.InCluster) / float64(den)
}

// Ledger accumulates decision counts across reallocation intervals.
type Ledger struct {
	closed []Counts
	cur    Counts
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Reset discards all recorded decisions, retaining the closed-interval
// slice's capacity so a rebuilt simulation reuses it.
func (l *Ledger) Reset() {
	l.closed = l.closed[:0]
	l.cur = Counts{}
}

// Record adds n decisions of kind k to the current interval. Negative n
// panics: decisions cannot be unmade.
func (l *Ledger) Record(k Kind, n int) {
	if n < 0 {
		panic("scaling: negative decision count")
	}
	switch k {
	case Vertical:
		l.cur.Local += n
	case Horizontal:
		l.cur.InCluster += n
	default:
		panic(fmt.Sprintf("scaling: unknown kind %d", int(k)))
	}
}

// CloseInterval finalizes the current interval and returns its counts.
func (l *Ledger) CloseInterval() Counts {
	c := l.cur
	l.closed = append(l.closed, c)
	l.cur = Counts{}
	return c
}

// Intervals returns the closed per-interval counts.
func (l *Ledger) Intervals() []Counts { return append([]Counts(nil), l.closed...) }

// RatioSeries returns the per-interval in-cluster/local ratios — the
// series plotted in Figure 3.
func (l *Ledger) RatioSeries() []float64 {
	out := make([]float64, len(l.closed))
	for i, c := range l.closed {
		out[i] = c.Ratio()
	}
	return out
}

// MeanRatio returns the average of the ratio series (Table 2's "Average
// ratio" column).
func (l *Ledger) MeanRatio() float64 { return stats.Mean(l.RatioSeries()) }

// StdDevRatio returns the sample standard deviation of the ratio series
// (Table 2's "Standard deviation" column).
func (l *Ledger) StdDevRatio() float64 { return stats.SampleStdDev(l.RatioSeries()) }

// Totals sums all closed intervals.
func (l *Ledger) Totals() Counts {
	var t Counts
	for _, c := range l.closed {
		t.Local += c.Local
		t.InCluster += c.InCluster
	}
	return t
}
