package experiments

import (
	"context"
	"fmt"
	"io"

	"ealb/internal/analytic"
	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/policy"
	"ealb/internal/server"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// RenderTable1 writes the paper's Table 1: estimated average power use of
// volume, mid-range and high-end servers, 2000-2006.
func RenderTable1(w io.Writer) error {
	headers := []string{"Type"}
	for _, y := range table1Years {
		headers = append(headers, fmt.Sprintf("%d", y))
	}
	t := NewTable("Table 1 — estimated average server power use (Watts) [Koomey]", headers...)
	for _, class := range []serverClass{classVolume, classMidRange, classHighEnd} {
		row := []string{class.String()}
		series, err := table1Row(class)
		if err != nil {
			return err
		}
		for _, watts := range series {
			row = append(row, fmt.Sprintf("%.0f", float64(watts)))
		}
		if err := t.AddRow(row...); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// RenderHomogeneous writes the §4 homogeneous-model worked example and a
// parameter sweep around it.
func RenderHomogeneous(w io.Writer) error {
	m := analytic.PaperExample()
	ratio, err := m.EnergyRatio()
	if err != nil {
		return err
	}
	sav, err := m.Savings()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Homogeneous cloud model (§4, eqs. 6-13)\n")
	fmt.Fprintf(w, "b_avg=%.2f a_avg=%.2f b_opt=%.2f a_opt=%.2f\n",
		float64(m.BAvg), float64(m.AAvg()), float64(m.BOpt), float64(m.AOpt))
	fmt.Fprintf(w, "E_ref/E_opt = %.4f (paper: 2.25), energy saving %.1f%%, n_sleep = %.0f of %d\n\n",
		ratio, sav*100, m.SleepCount(), m.N)

	t := NewTable("Sweep: E_ref/E_opt as the optimized operating point varies",
		"a_opt", "b_opt", "E_ref/E_opt", "servers asleep")
	for _, aOpt := range []float64{0.6, 0.7, 0.8, 0.9, 1.0} {
		for _, bOpt := range []float64{0.7, 0.8, 0.9} {
			mm := m
			mm.AOpt = units.Fraction(aOpt)
			mm.BOpt = units.Fraction(bOpt)
			r, err := mm.EnergyRatio()
			if err != nil {
				continue
			}
			if err := t.AddRow(
				fmt.Sprintf("%.1f", aOpt), fmt.Sprintf("%.1f", bOpt),
				fmt.Sprintf("%.3f", r), fmt.Sprintf("%.0f", mm.SleepCount()),
			); err != nil {
				return err
			}
		}
	}
	return t.Render(w)
}

// PolicyWorkloads are the three §3 load shapes the policy comparison
// sweeps: smooth/predictable, daily cycle, and an unpredictable spike.
func PolicyWorkloads(horizon units.Seconds) map[string]workload.RateFunc {
	return map[string]workload.RateFunc{
		"steady":  workload.ConstantRate(3000),
		"diurnal": workload.DiurnalRate(1000, 4000, horizon),
		"spiky": workload.Compose(
			workload.ConstantRate(1000),
			workload.SpikeRate(0, 5000, horizon/3, horizon/12),
			workload.SpikeRate(0, 3000, 2*horizon/3, horizon/20),
		),
	}
}

// RenderPolicies runs the §3 policy line-up against the three workloads
// and writes energy and SLA-violation results.
func RenderPolicies(w io.Writer, cfg policy.FarmConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	names := []string{"steady", "diurnal", "spiky"}
	loads := PolicyWorkloads(cfg.Horizon)
	for _, name := range names {
		rate := loads[name]
		results, err := policy.Compare(context.Background(), cfg, policy.StandardSetFor(rate), rate)
		if err != nil {
			return err
		}
		t := NewTable(
			fmt.Sprintf("Policy comparison — %s workload (farm %d servers, setup %v)", name, cfg.Servers, policy.SetupTime),
			"Policy", "Energy (kWh)", "Drop rate", "RT violations", "Mean RT (ms)", "Avg active")
		for _, r := range results {
			if err := t.AddRow(
				r.Policy,
				fmt.Sprintf("%.2f", r.Energy.KWh()),
				fmt.Sprintf("%.4f", r.DropRate()),
				fmt.Sprintf("%d", r.RTViolationSlots),
				fmt.Sprintf("%.1f", r.MeanResponse*1000),
				fmt.Sprintf("%.1f", r.AvgActive),
			); err != nil {
				return err
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SleepAblation compares the sleep-state policies of §6: the 60% rule
// versus always-C3, always-C6, and never sleeping.
type SleepAblation struct {
	Policy   cluster.SleepPolicy
	Energy   float64 // Joules
	Sleeping int
	Wakes    int
	// WakeExposure sums, over sleeping servers at the end of the run,
	// the latency each would need to come back — the capacity-risk side
	// of the deep-sleep trade-off.
	WakeExposure units.Seconds
}

// RunSleepAblation measures all four policies on the same workload.
func RunSleepAblation(size int, band workload.Band, seed uint64, intervals int) ([]SleepAblation, error) {
	var out []SleepAblation
	for _, pol := range []cluster.SleepPolicy{cluster.SleepAuto, cluster.SleepC3Only, cluster.SleepC6Only, cluster.SleepNever} {
		pol := pol
		cfg := cluster.DefaultConfig(size, band, seed)
		cfg.Sleep = pol
		c, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		sts, err := c.RunIntervals(context.Background(), intervals)
		if err != nil {
			return nil, err
		}
		ab := SleepAblation{
			Policy:   pol,
			Energy:   float64(c.TotalEnergy()),
			Sleeping: c.SleepingCount(),
		}
		for _, st := range sts {
			ab.Wakes += st.Woken
		}
		for _, s := range c.Servers() {
			if s.Sleeping() {
				ab.WakeExposure += s.WakeLatency()
			}
		}
		out = append(out, ab)
	}
	return out, nil
}

// RenderSleepAblation writes the §6 ablation table.
func RenderSleepAblation(w io.Writer, rows []SleepAblation) error {
	t := NewTable("Ablation — sleep-state selection (§6's 60% rule vs fixed states)",
		"Policy", "Energy (kWh)", "Sleeping", "Wakes", "Wake exposure (s)")
	for _, r := range rows {
		if err := t.AddRow(
			r.Policy.String(),
			fmt.Sprintf("%.2f", r.Energy/3.6e6),
			fmt.Sprintf("%d", r.Sleeping),
			fmt.Sprintf("%d", r.Wakes),
			fmt.Sprintf("%.0f", float64(r.WakeExposure)),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// DeltaAblation measures how the width δ of the optimal region (§3:
// boundaries E_opt ± δ with δ = 5-10% of E_opt) affects migration volume
// and time spent in the optimal regime.
type DeltaAblation struct {
	Delta       float64
	Migrations  int
	MeanRatio   float64
	FinalInR3   int
	Sleeping    int
	EnergyTotal float64
}

// RunDeltaAblation sweeps δ for a homogeneous-boundaries cluster centred
// on opt.
func RunDeltaAblation(size int, band workload.Band, seed uint64, intervals int, opt float64, deltas []float64) ([]DeltaAblation, error) {
	var out []DeltaAblation
	for _, d := range deltas {
		d := d
		// Collapse the boundary sampling ranges onto opt ± δ (and ± 2δ
		// for the suboptimal edges), making every server share the same
		// regime geometry.
		b, err := server.WithDelta(units.Fraction(opt), units.Fraction(d))
		if err != nil {
			return nil, err
		}
		eps := 1e-9
		ranges := server.PaperRanges{
			SoptLow:  [2]float64{float64(b.SoptLow), float64(b.SoptLow) + eps},
			OptLow:   [2]float64{float64(b.OptLow), float64(b.OptLow) + eps},
			OptHigh:  [2]float64{float64(b.OptHigh), float64(b.OptHigh) + eps},
			SoptHigh: [2]float64{float64(b.SoptHigh), float64(b.SoptHigh) + eps},
		}
		run, err := engine.RunCluster(context.Background(), size, band, seed, intervals, func(c *cluster.Config) {
			c.Ranges = ranges
		})
		if err != nil {
			return nil, err
		}
		migs := 0
		for _, s := range run.Stats {
			migs += s.Migrations
		}
		out = append(out, DeltaAblation{
			Delta:       d,
			Migrations:  migs,
			MeanRatio:   run.MeanRatio,
			FinalInR3:   run.After[2],
			Sleeping:    run.Sleeping,
			EnergyTotal: run.Energy,
		})
	}
	return out, nil
}

// RenderDeltaAblation writes the δ sweep table.
func RenderDeltaAblation(w io.Writer, rows []DeltaAblation) error {
	t := NewTable("Ablation — optimal-region width δ (§3: δ = (0.05-0.1)×E_opt)",
		"delta", "Migrations", "Mean ratio", "Final in R3", "Sleeping", "Energy (kWh)")
	for _, r := range rows {
		if err := t.AddRow(
			fmt.Sprintf("%.3f", r.Delta),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%.3f", r.MeanRatio),
			fmt.Sprintf("%d", r.FinalInR3),
			fmt.Sprintf("%d", r.Sleeping),
			fmt.Sprintf("%.2f", r.EnergyTotal/3.6e6),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// ConsolidationAblation compares default and conservative consolidation
// (the acceptor-stays-underloaded reading of §4 step 1, which reproduces
// the near-zero sleep counts of the paper's Table 2).
func ConsolidationAblation(w io.Writer, size int, seed uint64, intervals int) error {
	def, err := engine.RunCluster(context.Background(), size, workload.LowLoad(), seed, intervals, nil)
	if err != nil {
		return err
	}
	cons, err := engine.RunCluster(context.Background(), size, workload.LowLoad(), seed, intervals, func(c *cluster.Config) {
		c.ConservativeConsolidation = true
	})
	if err != nil {
		return err
	}
	t := NewTable("Ablation — consolidation acceptor rule (30% load)",
		"Rule", "Sleeping", "Avg sleeping", "Mean ratio", "Energy (kWh)")
	for _, row := range []struct {
		name string
		r    ClusterRun
	}{
		{"fill-to-optimal (default)", def},
		{"stay-underloaded (conservative)", cons},
	} {
		if err := t.AddRow(
			row.name,
			fmt.Sprintf("%d", row.r.Sleeping),
			fmt.Sprintf("%.1f", row.r.AvgAsleep),
			fmt.Sprintf("%.3f", row.r.MeanRatio),
			fmt.Sprintf("%.2f", row.r.Energy/3.6e6),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}
