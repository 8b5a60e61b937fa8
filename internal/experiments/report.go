// Text rendering of experiment output: aligned tables (the paper's
// Tables 1 and 2), ASCII bar charts and line plots (Figures 2 and 3).
// Everything renders to an io.Writer so the same code serves the command
// line tools, the examples, and golden tests.

package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows are rejected.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) > len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
	return nil
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// BarChart renders labeled horizontal bars scaled to a maximum width —
// the text rendition of the paper's Figure 2 histograms.
type BarChart struct {
	Title  string
	Width  int // maximum bar width in characters
	labels []string
	values []float64
}

// NewBarChart creates a chart; width <= 0 selects 50 characters.
func NewBarChart(title string, width int) *BarChart {
	if width <= 0 {
		width = 50
	}
	return &BarChart{Title: title, Width: width}
}

// Add appends one labeled bar.
func (b *BarChart) Add(label string, value float64) {
	b.labels = append(b.labels, label)
	b.values = append(b.values, value)
}

// Render writes the chart to w.
func (b *BarChart) Render(w io.Writer) error {
	maxVal := 0.0
	maxLabel := 0
	for i, v := range b.values {
		if v > maxVal {
			maxVal = v
		}
		if len(b.labels[i]) > maxLabel {
			maxLabel = len(b.labels[i])
		}
	}
	var sb strings.Builder
	if b.Title != "" {
		sb.WriteString(b.Title)
		sb.WriteByte('\n')
	}
	for i, v := range b.values {
		n := 0
		if maxVal > 0 {
			n = int(v / maxVal * float64(b.Width))
		}
		if v > 0 && n == 0 {
			n = 1 // a nonzero value always shows at least one tick
		}
		fmt.Fprintf(&sb, "%-*s |%s %g\n", maxLabel, b.labels[i], strings.Repeat("#", n), v)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// LinePlot renders a time series as an ASCII plot with the y-axis scaled
// to the data — the text rendition of the paper's Figure 3 traces.
type LinePlot struct {
	Title  string
	Height int
	series []float64
}

// NewLinePlot creates a plot; height <= 0 selects 12 rows.
func NewLinePlot(title string, height int) *LinePlot {
	if height <= 0 {
		height = 12
	}
	return &LinePlot{Title: title, Height: height}
}

// AddSeries appends many observations.
func (p *LinePlot) AddSeries(vs []float64) { p.series = append(p.series, vs...) }

// Render writes the plot to w.
func (p *LinePlot) Render(w io.Writer) error {
	if len(p.series) == 0 {
		_, err := io.WriteString(w, p.Title+" (no data)\n")
		return err
	}
	lo, hi := p.series[0], p.series[0]
	for _, v := range p.series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, p.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(p.series)))
	}
	for x, v := range p.series {
		y := int((v - lo) / (hi - lo) * float64(p.Height-1))
		row := p.Height - 1 - y
		grid[row][x] = '*'
	}
	var sb strings.Builder
	if p.Title != "" {
		sb.WriteString(p.Title)
		sb.WriteByte('\n')
	}
	for r, line := range grid {
		var axis float64
		switch r {
		case 0:
			axis = hi
		case p.Height - 1:
			axis = lo
		default:
			axis = hi - (hi-lo)*float64(r)/float64(p.Height-1)
		}
		fmt.Fprintf(&sb, "%8.2f |%s\n", axis, string(line))
	}
	fmt.Fprintf(&sb, "%8s +%s\n", "", strings.Repeat("-", len(p.series)))
	_, err := io.WriteString(w, sb.String())
	return err
}
