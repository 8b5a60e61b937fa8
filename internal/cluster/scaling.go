package cluster

// Scaling decisions: the statistic the paper's Figure 3 and Table 2
// report is the per-interval ratio of high-cost in-cluster (horizontal)
// decisions to low-cost local (vertical) decisions.
//
// Vertical scaling grants an application more resources on its current
// server — cheap, no data moves. Horizontal (in-cluster) scaling involves
// the leader, a target server, and a VM transfer — expensive (§5,
// "High-cost versus low-cost application scaling"). The cluster counts
// the open interval's decisions in one Counts, which closes into that
// interval's IntervalStats; run-level statistics fold from those records.

// Counts tallies the decisions of one reallocation interval. It is
// embedded in IntervalStats' pinned JSON encoding, so the wire names are
// explicit (and equal to the historical field names).
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
