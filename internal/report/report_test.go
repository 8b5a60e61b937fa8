// Package report_test checks the text renderers of package experiments
// through their exported API.
package report_test

import (
	"strings"
	"testing"

	"ealb/internal/experiments"
)

func TestTableRender(t *testing.T) {
	tb := experiments.NewTable("Power", "Type", "2000", "2006")
	if err := tb.AddRow("Vol", "186", "225"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("Mid", "424", "675"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Power", "Type", "Vol", "186", "675"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the same prefix width for col 2.
	hdr := lines[1]
	if !strings.HasPrefix(hdr, "Type") {
		t.Errorf("header line %q", hdr)
	}
}

func TestTableRowValidation(t *testing.T) {
	tb := experiments.NewTable("", "A", "B")
	if err := tb.AddRow("1", "2", "3"); err == nil {
		t.Error("overlong row must error")
	}
	if err := tb.AddRow("1"); err != nil {
		t.Errorf("short row must pad: %v", err)
	}
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestBarChart(t *testing.T) {
	c := experiments.NewBarChart("Regimes", 20)
	c.Add("R1", 10)
	c.Add("R2", 40)
	c.Add("R3", 0)
	c.Add("R5", 1)
	var sb strings.Builder
	if err := c.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// The maximum bar fills the width; zero shows no ticks; tiny nonzero
	// values show at least one tick.
	if !strings.Contains(lines[2], strings.Repeat("#", 20)) {
		t.Errorf("max bar must fill width: %q", lines[2])
	}
	if strings.Contains(lines[3], "#") {
		t.Errorf("zero bar must be empty: %q", lines[3])
	}
	if !strings.Contains(lines[4], "#") {
		t.Errorf("small nonzero bar must show a tick: %q", lines[4])
	}
}

func TestBarChartDefaults(t *testing.T) {
	c := experiments.NewBarChart("", 0)
	if c.Width != 50 {
		t.Errorf("default width = %d", c.Width)
	}
}

func TestLinePlot(t *testing.T) {
	p := experiments.NewLinePlot("Ratio", 5)
	p.AddSeries([]float64{0, 1, 2, 3, 4, 3, 2, 1, 0})
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") {
		t.Error("plot must contain data points")
	}
	if !strings.Contains(out, "4.00") || !strings.Contains(out, "0.00") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	// Exactly one point per column.
	stars := strings.Count(out, "*")
	if stars != 9 {
		t.Errorf("got %d points, want 9", stars)
	}
}

func TestLinePlotEdgeCases(t *testing.T) {
	p := experiments.NewLinePlot("empty", 4)
	var sb strings.Builder
	if err := p.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty plot must say so")
	}
	flat := experiments.NewLinePlot("flat", 4)
	flat.AddSeries([]float64{2, 2, 2})
	sb.Reset()
	if err := flat.Render(&sb); err != nil {
		t.Fatal(err) // constant series must not divide by zero
	}
	if !strings.Contains(sb.String(), "*") {
		t.Error("flat series must still plot")
	}
}
