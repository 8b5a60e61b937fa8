package experiments

import (
	"fmt"
	"io"

	"ealb/internal/power"
	"ealb/internal/report"
	"ealb/internal/units"
)

// DVFSStudy is the dynamic voltage and frequency scaling extension the
// paper points at through [14] ("the laws of diminishing returns"): how
// much power each P-state saves at a given demand, and the diminishing
// return as the idle floor dominates.
type DVFSStudy struct {
	Demand units.Fraction
	State  string
	Power  units.Watts
	Saving float64 // fraction saved vs the nominal P0 draw at that demand
}

// RunDVFSStudy evaluates the QoS-safe best P-state across a demand sweep
// for a standard volume server. Each demand level is one closed-form
// evaluation on its own DVFS model instance.
func RunDVFSStudy() ([]DVFSStudy, error) {
	demands := []units.Fraction{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	out := make([]DVFSStudy, len(demands))
	for i, demand := range demands {
		base, err := power.NewLinear(100, 200)
		if err != nil {
			return nil, err
		}
		d, err := power.NewDVFS(base, power.DefaultPStates())
		if err != nil {
			return nil, err
		}
		nominal := d.Power(demand)
		if err := d.SetState(d.BestStateFor(demand)); err != nil {
			return nil, err
		}
		scaled := d.Power(demand)
		saving := 0.0
		if nominal > 0 {
			saving = 1 - float64(scaled)/float64(nominal)
		}
		out[i] = DVFSStudy{
			Demand: demand,
			State:  d.Current().Name,
			Power:  scaled,
			Saving: saving,
		}
	}
	return out, nil
}

// RenderDVFSStudy writes the table for the demand sweep.
func RenderDVFSStudy(w io.Writer) error {
	rows, err := RunDVFSStudy()
	if err != nil {
		return err
	}
	return RenderDVFSRows(w, rows)
}

// RenderDVFSRows writes the P-state selection table.
func RenderDVFSRows(w io.Writer, rows []DVFSStudy) error {
	t := report.NewTable(
		"Extension — DVFS (QoS-safe P-state per demand level, 100/200 W volume server)",
		"Demand", "P-state", "Power (W)", "Saving vs P0")
	for _, r := range rows {
		if err := t.AddRow(
			r.Demand.Percent(),
			r.State,
			fmt.Sprintf("%.1f", float64(r.Power)),
			fmt.Sprintf("%.1f%%", r.Saving*100),
		); err != nil {
			return err
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nDiminishing returns (cf. [14]): the idle floor is untouched by DVFS, so")
	fmt.Fprintln(w, "savings shrink as demand falls — sleep states, not P-states, reclaim the")
	fmt.Fprintln(w, "idle floor, which is why the paper's protocol consolidates and sleeps.")
	return nil
}
