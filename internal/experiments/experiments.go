// Package experiments contains one runner per table and figure of the
// paper's evaluation (§5), plus the extension and ablation studies listed
// in DESIGN.md. Each runner produces structured results and can render
// them as text; the cmd/ealb-experiments binary and the root bench suite
// are thin wrappers around this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"ealb/internal/engine"
	"ealb/internal/workload"
)

// DefaultSeed is the seed used by all default experiment runs; change it
// on the command line to check robustness of the shapes.
const DefaultSeed uint64 = engine.DefaultSeed // the paper's publication year

// DefaultIntervals is the experiment length from §5: "the evolution of a
// cluster for some 40 reallocation intervals".
const DefaultIntervals = engine.DefaultIntervals

// PaperSizes are the cluster sizes of §5: 10^2, 10^3, 10^4.
var PaperSizes = []int{100, 1000, 10000}

// PaperBands are the two initial-load distributions of §5.
var PaperBands = []workload.Band{workload.LowLoad(), workload.HighLoad()}

// ClusterRun is the raw outcome of one (size, band) cluster simulation.
// It is an alias of the engine's run record: the engine owns the
// measurement so parallel sweeps and the HTTP service share one
// implementation with the serial runners here.
type ClusterRun = engine.ClusterRun

// clusterSweep runs the sizes × bands × seeds cross-product of §5
// cluster cells as one engine sweep and returns the cell results in
// expansion order: sizes outermost, then bands, then seeds. Every cell
// derives its random streams from its own seed and lands in its own
// slot, so the result is identical on a pool of any width.
func clusterSweep(p *engine.Pool, sizes []int, bands []workload.Band, seeds []uint64, intervals int, compareBaseline bool) ([]engine.Result, error) {
	spec := engine.SweepSpec{Sizes: sizes, Seeds: seeds}
	spec.Intervals = intervals
	spec.CompareBaseline = compareBaseline
	for _, b := range bands {
		// 'f' with precision -1 is the shortest form that parses back to
		// the same float and never carries an exponent, whose '-' would
		// split the "lo-hi" spec in the wrong place.
		spec.Bands = append(spec.Bands, strconv.FormatFloat(b.Lo, 'f', -1, 64)+"-"+strconv.FormatFloat(b.Hi, 'f', -1, 64))
	}
	res, err := p.RunSweep(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	return res.Cells, nil
}

// clusterRuns extracts the cluster measurements of a clusterSweep.
func clusterRuns(cells []engine.Result) []ClusterRun {
	runs := make([]ClusterRun, len(cells))
	for i, c := range cells {
		runs[i] = *c.Cluster
	}
	return runs
}

// Figure2On runs the §5 panels (each size × both load bands) on a worker
// pool and returns the before/after regime distributions. The same runs
// carry the Figure 3 ratio traces and the Table 2 statistics.
func Figure2On(p *engine.Pool, sizes []int, seed uint64, intervals int) ([]ClusterRun, error) {
	cells, err := clusterSweep(p, sizes, PaperBands, []uint64{seed}, intervals, false)
	if err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}
	return clusterRuns(cells), nil
}

// RenderFigure2 writes the regime histograms in the layout of the paper's
// Figure 2: per panel, initial versus final server counts per regime.
func RenderFigure2(w io.Writer, runs []ClusterRun) error {
	fmt.Fprintln(w, "Figure 2 — servers per operating regime before/after energy-aware load balancing")
	fmt.Fprintln(w, "(final counts cover awake servers; sleeping servers are listed separately)")
	for _, r := range runs {
		fmt.Fprintf(w, "\nCluster size %d, average load %.0f%%\n", r.Size, r.Band.Mean()*100)
		chart := NewBarChart("  initial", 40)
		for i, n := range r.Before {
			chart.Add(fmt.Sprintf("R%d", i+1), float64(n))
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		chart = NewBarChart("  final", 40)
		for i, n := range r.After {
			chart.Add(fmt.Sprintf("R%d", i+1), float64(n))
		}
		if err := chart.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "  sleeping: %d\n", r.Sleeping)
	}
	return nil
}

// RenderFigure3 writes the in-cluster/local decision ratio traces.
func RenderFigure3(w io.Writer, runs []ClusterRun) error {
	fmt.Fprintln(w, "Figure 3 — ratio of in-cluster to local decisions per reallocation interval")
	for _, r := range runs {
		title := fmt.Sprintf("\nCluster size %d, average load %.0f%% (crossover at interval %d)",
			r.Size, r.Band.Mean()*100, r.Crossover())
		plot := NewLinePlot(title, 10)
		plot.AddSeries(r.Ratios())
		if err := plot.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderTable2 writes the Table 2 summary for the given runs.
func RenderTable2(w io.Writer, runs []ClusterRun) error {
	t := NewTable(
		"Table 2 — in-cluster to local decision ratios",
		"Cluster size", "Avg load", "Avg # sleeping", "Average ratio", "Std deviation")
	for _, r := range runs {
		if err := t.AddRow(
			fmt.Sprintf("%d", r.Size),
			fmt.Sprintf("%.0f%%", r.Band.Mean()*100),
			fmt.Sprintf("%.1f", r.AvgAsleep),
			fmt.Sprintf("%.4f", r.MeanRatio),
			fmt.Sprintf("%.4f", r.StdRatio),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// SmallClustersOn runs the cluster-size extension from [19] that §5
// mentions — sizes 20, 40, 60, 80 — on a worker pool.
func SmallClustersOn(p *engine.Pool, seed uint64, intervals int) ([]ClusterRun, error) {
	return Figure2On(p, []int{20, 40, 60, 80}, seed, intervals)
}

// EnergySavings compares the energy-aware cluster against the always-on
// baseline at each load band and reports E_ref/E_opt, the measured
// counterpart of the homogeneous model's eq. 12.
type EnergySavings struct {
	Size        int
	Band        workload.Band
	EnergyAware float64 // Joules
	AlwaysOn    float64 // Joules
	Ratio       float64 // AlwaysOn / EnergyAware
}

// EnergySavingsSweepOn measures the savings for every (size, band)
// configuration: each cell runs the energy-aware cluster and its
// always-on baseline through the pool.
func EnergySavingsSweepOn(p *engine.Pool, sizes []int, bands []workload.Band, seed uint64, intervals int) ([]EnergySavings, error) {
	cells, err := clusterSweep(p, sizes, bands, []uint64{seed}, intervals, true)
	if err != nil {
		return nil, err
	}
	out := make([]EnergySavings, len(cells))
	for i, c := range cells {
		aware := c.Cluster
		out[i] = EnergySavings{
			Size: aware.Size, Band: aware.Band,
			EnergyAware: aware.Energy,
			AlwaysOn:    c.AlwaysOnJoules,
		}
		if aware.Energy > 0 {
			out[i].Ratio = c.AlwaysOnJoules / aware.Energy
		}
	}
	return out, nil
}

// RenderEnergySavings writes the measured E_ref/E_opt table.
func RenderEnergySavings(w io.Writer, rows []EnergySavings) error {
	t := NewTable(
		"Energy savings — always-on baseline vs energy-aware cluster (measured eq. 12)",
		"Cluster size", "Avg load", "Always-on (kWh)", "Energy-aware (kWh)", "E_ref/E_opt")
	for _, r := range rows {
		if err := t.AddRow(
			fmt.Sprintf("%d", r.Size),
			fmt.Sprintf("%.0f%%", r.Band.Mean()*100),
			fmt.Sprintf("%.2f", r.AlwaysOn/3.6e6),
			fmt.Sprintf("%.2f", r.EnergyAware/3.6e6),
			fmt.Sprintf("%.3f", r.Ratio),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}
