package engine

import (
	"fmt"

	"ealb/internal/stats"
)

// Stat is the four-number summary of one metric across a group of cells.
// StdDev is the sample (n−1) standard deviation — the group's cells are
// a seed sample from the scenario's run distribution, not the
// population, so the unbiased estimator is the right one — and it is
// zero for a single cell, matching stats.Running.SampleStdDev.
type Stat struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

// statOf summarizes xs through the stats package's running moments, so
// the aggregate layer shares one standard-deviation definition with the
// rest of the repository instead of hand-rolling its own. An empty
// slice yields the zero Stat.
func statOf(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	var r stats.Running
	for _, x := range xs {
		r.Add(x)
	}
	return Stat{Mean: r.Mean(), Min: r.Min(), Max: r.Max(), StdDev: r.SampleStdDev()}
}

// Aggregate summarizes every cell of one parameter combination — the
// cells that differ only in seed (seed axis × replications). The metrics
// are the three the paper's sweep panels report on: total energy, energy
// saved versus the always-on baseline (zero unless the sweep requested a
// baseline comparison), and SLA violations (cluster: intervals' violation
// counts summed over the run; policy: violation slots summed across the
// policy line-up).
type Aggregate struct {
	// Group names the parameter combination, e.g.
	// "size=100 band=low sleep=auto" or "profile=diurnal servers=100".
	Group string `json:"group"`
	// Cells is how many cells (seeds × replications) the group covers.
	Cells int `json:"cells"`

	Energy        Stat `json:"energy"`
	JoulesSaved   Stat `json:"joules_saved"`
	SLAViolations Stat `json:"sla_violations"`
	// AppsLost and Availability summarize the resilience of churned
	// groups: applications lost to failures per run, and the mean
	// live-server fraction (identically 1 for churn-free groups).
	AppsLost     Stat `json:"apps_lost"`
	Availability Stat `json:"availability"`
}

// groupKey buckets a cell by everything except its seed. Churn scalars
// append only when set, so churn-free sweeps keep their historical
// group names.
func groupKey(s Scenario) string {
	key := ""
	switch s.Kind {
	case KindPolicy:
		return fmt.Sprintf("profile=%s servers=%d", s.Profile, s.Servers)
	case KindFarm:
		key = fmt.Sprintf("clusters=%d size=%d band=%s sleep=%s dispatch=%s",
			s.Clusters, s.Size, s.Band, s.Sleep, s.Dispatch)
	default:
		key = fmt.Sprintf("size=%d band=%s sleep=%s", s.Size, s.Band, s.Sleep)
	}
	if s.MTBF != nil {
		key += fmt.Sprintf(" mtbf=%g", *s.MTBF)
	}
	if s.MTTR != nil {
		key += fmt.Sprintf(" mttr=%g", *s.MTTR)
	}
	return key
}

// cellMetrics are the aggregated metrics of one cell result.
type cellMetrics struct {
	energy, saved, sla float64
	lost, availability float64
}

// metrics extracts the aggregated metrics of one cell result. Policy
// runs have no failure process, so they report no losses and full
// availability.
func (r Result) metrics() cellMetrics {
	m := cellMetrics{availability: 1}
	switch r.Kind {
	case KindPolicy:
		for _, pr := range r.Policies {
			m.energy += float64(pr.Energy)
			m.sla += float64(pr.ViolationSlots)
		}
	case KindFarm:
		if r.Farm != nil {
			m.energy = r.Farm.Energy
			for _, st := range r.Farm.Stats {
				m.sla += float64(st.SLAViolations)
			}
			m.lost = float64(r.Farm.AppsLost)
			m.availability = r.Farm.Availability
		}
	default:
		if r.Cluster != nil {
			m.energy = r.Cluster.Energy
			for _, st := range r.Cluster.Stats {
				m.sla += float64(st.SLAViolations)
			}
			m.lost = float64(r.Cluster.AppsLost)
			m.availability = r.Cluster.Availability
		}
		m.saved = r.JoulesSaved
	}
	return m
}

// Aggregates groups cell results by parameter combination (everything
// but the seed) and summarizes each group, in first-appearance order.
func Aggregates(cells []Result) []Aggregate {
	type bucket struct {
		energy, saved, sla []float64
		lost, avail        []float64
	}
	order := make([]string, 0, len(cells))
	groups := make(map[string]*bucket)
	for _, c := range cells {
		key := groupKey(c.Scenario)
		b, ok := groups[key]
		if !ok {
			b = &bucket{}
			groups[key] = b
			order = append(order, key)
		}
		m := c.metrics()
		b.energy = append(b.energy, m.energy)
		b.saved = append(b.saved, m.saved)
		b.sla = append(b.sla, m.sla)
		b.lost = append(b.lost, m.lost)
		b.avail = append(b.avail, m.availability)
	}
	out := make([]Aggregate, 0, len(order))
	for _, key := range order {
		b := groups[key]
		out = append(out, Aggregate{
			Group:         key,
			Cells:         len(b.energy),
			Energy:        statOf(b.energy),
			JoulesSaved:   statOf(b.saved),
			SLAViolations: statOf(b.sla),
			AppsLost:      statOf(b.lost),
			Availability:  statOf(b.avail),
		})
	}
	return out
}
