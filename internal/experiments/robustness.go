package experiments

import (
	"fmt"
	"io"
	"strings"

	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/stats"
	"ealb/internal/workload"
)

// Robustness re-runs one (size, band) configuration across several seeds
// and aggregates the ratio trace — verifying that the shapes reported in
// EXPERIMENTS.md (crossover position, late-run levels, sleep counts) are
// properties of the protocol, not of one random stream. The paper reports
// single runs; this is an extension.
type Robustness struct {
	Size      int
	Band      workload.Band
	Seeds     []uint64
	Agg       seriesAggregate
	Crossover []int // per-seed crossover intervals
	Sleeping  []int // per-seed final sleep counts
}

// RunRobustnessOn executes the per-seed sweep through a worker pool; the
// seeds are independent random streams, so the aggregate is identical to
// the serial sweep.
func RunRobustnessOn(p *engine.Pool, size int, band workload.Band, seeds []uint64, intervals int) (Robustness, error) {
	if len(seeds) == 0 {
		return Robustness{}, fmt.Errorf("experiments: robustness needs at least one seed")
	}
	cells, err := clusterSweep(p, []int{size}, []workload.Band{band}, seeds, intervals, false)
	if err != nil {
		return Robustness{}, err
	}
	out := Robustness{Size: size, Band: band, Seeds: seeds}
	var runs [][]cluster.IntervalStats
	for _, r := range clusterRuns(cells) {
		runs = append(runs, r.Stats)
		out.Crossover = append(out.Crossover, r.Crossover())
		out.Sleeping = append(out.Sleeping, r.Sleeping)
	}
	agg, err := aggregateSeries(runs)
	if err != nil {
		return Robustness{}, err
	}
	out.Agg = agg
	return out, nil
}

// Render writes the aggregated trace and the per-seed crossovers.
func (r Robustness) Render(w io.Writer) error {
	fmt.Fprintf(w, "Robustness — %d seeds, %d servers, %.0f%% average load\n",
		len(r.Seeds), r.Size, r.Band.Mean()*100)
	plot := NewLinePlot("  mean in-cluster/local ratio per interval (across seeds)", 10)
	plot.AddSeries(r.Agg.Mean)
	if err := plot.Render(w); err != nil {
		return err
	}
	t := NewTable("", "Seed", "Crossover interval", "Final sleeping")
	for i, s := range r.Seeds {
		if err := t.AddRow(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", r.Crossover[i]),
			fmt.Sprintf("%d", r.Sleeping[i]),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// WriteRatioCSV exports one cluster run's per-interval metrics for
// external plotting (matplotlib regeneration of Figure 3).
func WriteRatioCSV(w io.Writer, run ClusterRun) error {
	return writeCSV(w, run.Stats)
}

// robustnessRunner registers the experiment.
func robustnessRunner(w io.Writer, opt Options) error {
	seeds := []uint64{opt.Seed, opt.Seed + 1, opt.Seed + 2, opt.Seed + 3, opt.Seed + 4}
	size := smallest(opt.Sizes, 1000)
	pool := opt.pool()
	for _, band := range PaperBands {
		r, err := RunRobustnessOn(pool, size, band, seeds, opt.Intervals)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// csvHeader is the fixed column layout of writeCSV.
var csvHeader = []string{
	"interval", "ratio", "local", "incluster", "migrations",
	"sleeping", "woken", "sla_violations", "cluster_load", "energy_j",
}

// writeCSV writes one row per interval record, after a header row.
func writeCSV(w io.Writer, sts []cluster.IntervalStats) error {
	if _, err := io.WriteString(w, strings.Join(csvHeader, ",")+"\n"); err != nil {
		return err
	}
	for _, st := range sts {
		_, err := fmt.Fprintf(w, "%d,%g,%d,%d,%d,%d,%d,%d,%g,%g\n",
			st.Index, st.Ratio, st.Decisions.Local, st.Decisions.InCluster,
			st.Migrations, st.Sleeping, st.Woken, st.SLAViolations,
			float64(st.ClusterLoad), float64(st.IntervalEnergy))
		if err != nil {
			return err
		}
	}
	return nil
}

// seriesAggregate holds per-interval statistics across several runs of
// the same experiment with different seeds.
type seriesAggregate struct {
	Runs  int
	Mean  []float64 // mean ratio per interval
	Std   []float64 // sample std dev of the ratio per interval
	Sleep []float64 // mean sleeping count per interval
}

// aggregateSeries combines K same-length runs. It errors on mismatched
// lengths or empty input.
func aggregateSeries(runs [][]cluster.IntervalStats) (seriesAggregate, error) {
	if len(runs) == 0 {
		return seriesAggregate{}, fmt.Errorf("experiments: no runs to aggregate")
	}
	n := len(runs[0])
	for i, r := range runs {
		if len(r) != n {
			return seriesAggregate{}, fmt.Errorf("experiments: run %d has %d intervals, run 0 has %d", i, len(r), n)
		}
	}
	agg := seriesAggregate{
		Runs:  len(runs),
		Mean:  make([]float64, n),
		Std:   make([]float64, n),
		Sleep: make([]float64, n),
	}
	for t := 0; t < n; t++ {
		var rec stats.Running
		var sleep float64
		for _, r := range runs {
			rec.Add(r[t].Ratio)
			sleep += float64(r[t].Sleeping)
		}
		agg.Mean[t] = rec.Mean()
		agg.Std[t] = rec.SampleStdDev()
		agg.Sleep[t] = sleep / float64(len(runs))
	}
	return agg, nil
}
