package experiments

import (
	"fmt"
	"io"
	"strings"

	"ealb/internal/server"
	"ealb/internal/units"
)

// RenderFigure1 regenerates the paper's Figure 1: normalized performance
// a(t) versus normalized energy consumption b(t) for one server, with the
// boundaries of the five operating regions marked on both axes.
//
// The performance-energy relation a = f(b) comes from inverting a power
// model: for a linear model with idle fraction i, b = i + (1-i)a, so the
// curve is the straight line the paper sketches, starting at b = i for
// a = 0 (the idle floor) and reaching (1,1) at peak.
func RenderFigure1(w io.Writer, b server.Boundaries, m PowerModel) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("experiments: nil power model")
	}
	fmt.Fprintln(w, "Figure 1 — normalized performance vs normalized energy consumption")
	fmt.Fprintf(w, "boundaries: α^sopt,l=%.2f α^opt,l=%.2f α^opt,h=%.2f α^sopt,h=%.2f\n\n",
		float64(b.SoptLow), float64(b.OptLow), float64(b.OptHigh), float64(b.SoptHigh))

	const height, width = 16, 56
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(a, bb float64, ch byte) {
		x := int(bb * float64(width-1))
		y := int(a * float64(height-1))
		row := height - 1 - y
		if row >= 0 && row < height && x >= 0 && x < width {
			grid[row][x] = ch
		}
	}
	// The a(b) curve.
	for i := 0; i <= 400; i++ {
		a := float64(i) / 400
		bb := float64(normalizedEnergy(m, units.Fraction(a)))
		plot(a, bb, '*')
	}
	// Region boundaries as vertical markers at their energy coordinate.
	for _, mark := range []struct {
		a  units.Fraction
		ch byte
	}{
		{b.SoptLow, '1'}, {b.OptLow, '2'}, {b.OptHigh, '3'}, {b.SoptHigh, '4'},
	} {
		bb := float64(normalizedEnergy(m, mark.a))
		for r := 0; r < height; r++ {
			x := int(bb * float64(width-1))
			if grid[r][x] == ' ' {
				grid[r][x] = mark.ch
			}
		}
	}
	for r, line := range grid {
		a := float64(height-1-r) / float64(height-1)
		fmt.Fprintf(w, "a=%4.2f |%s\n", a, string(line))
	}
	fmt.Fprintf(w, "       +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "        b: 0%s1\n", strings.Repeat(" ", width-2))
	fmt.Fprintln(w, "\nregions: left of 1 = R1 (undesirable-low), 1..2 = R2 (suboptimal-low),")
	fmt.Fprintln(w, "2..3 = R3 (optimal), 3..4 = R4 (suboptimal-high), right of 4 = R5.")
	fmt.Fprintf(w, "the curve starts at b=%.2f for a=0: the idle floor of a non-energy-proportional server.\n",
		float64(normalizedEnergy(m, 0)))
	return nil
}

// figure1Runner registers the experiment with representative inputs: the
// midpoint boundaries of the §4 sampling ranges on the 50%-idle linear
// model.
func figure1Runner(w io.Writer, _ Options) error {
	b := server.Boundaries{SoptLow: 0.225, OptLow: 0.35, OptHigh: 0.675, SoptHigh: 0.825}
	m, err := server.NewLinearPower(100, 200)
	if err != nil {
		return err
	}
	return RenderFigure1(w, b, m)
}

// normalizedEnergy returns b(t) = current power / peak power for model m
// at utilization u — the horizontal axis of the paper's Figure 1.
func normalizedEnergy(m PowerModel, u units.Fraction) units.Fraction {
	peak := m.Peak()
	if peak <= 0 {
		return 0
	}
	return units.Fraction(float64(m.Power(u)) / float64(peak))
}
