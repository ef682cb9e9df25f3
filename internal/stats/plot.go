package stats

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Plot renders one or more equal-length series as an ASCII chart, one
// column of glyphs per series — enough to eyeball the paper's Figure 5/7
// shapes in a terminal or a markdown report. NaN values are gaps.
type Plot struct {
	title  string
	xLabel string
	series []plotSeries
}

type plotSeries struct {
	name   string
	glyph  byte
	values []float64
}

// NewPlot returns a plot with the given title and x-axis label.
func NewPlot(title, xLabel string) *Plot {
	return &Plot{title: title, xLabel: xLabel}
}

// plotHeight is the number of rows in a plot body.
const plotHeight = 12

// plotGlyphs assigns series marks in Add order.
const plotGlyphs = "*o+x#@%&"

// Add appends a named series. All series must have equal length; Add
// panics otherwise (a harness bug).
func (p *Plot) Add(name string, values []float64) {
	if len(p.series) > 0 && len(values) != len(p.series[0].values) {
		panic("stats: Plot series length mismatch")
	}
	glyph := plotGlyphs[len(p.series)%len(plotGlyphs)]
	p.series = append(p.series, plotSeries{name: name, glyph: glyph, values: values})
}

// Write renders the chart.
func (p *Plot) Write(w io.Writer) error {
	if len(p.series) == 0 || len(p.series[0].values) == 0 {
		_, err := fmt.Fprintf(w, "%s: (no data)\n", p.title)
		return err
	}
	width := len(p.series[0].values)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range p.series {
		for _, v := range s.values {
			if math.IsNaN(v) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) { // all NaN
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, plotHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range p.series {
		for x, v := range s.values {
			if math.IsNaN(v) {
				continue
			}
			row := int(math.Round((v - lo) / (hi - lo) * float64(plotHeight-1)))
			y := plotHeight - 1 - row
			grid[y][x] = s.glyph
		}
	}

	var legend []string
	for _, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.glyph, s.name))
	}
	if _, err := fmt.Fprintf(w, "%s  [%s]\n", p.title, strings.Join(legend, " ")); err != nil {
		return err
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = formatTick(hi)
		case plotHeight - 1:
			label = formatTick(lo)
		}
		if _, err := fmt.Fprintf(w, "%8s |%s\n", label, string(line)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%8s +%s\n", "", strings.Repeat("-", width)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%8s  %s\n", "", p.xLabel)
	return err
}

func formatTick(v float64) string {
	s := strconv.FormatFloat(v, 'g', 3, 64)
	if len(s) > 8 {
		s = strconv.FormatFloat(v, 'g', 2, 64)
	}
	return s
}
