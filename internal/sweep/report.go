package sweep

import (
	"bytes"
	"fmt"
	"io"

	"routeconv/internal/stats"
)

// WriteReport renders the whole sweep as a self-contained markdown report:
// every figure's table, ASCII charts for the time series, and the per-cell
// summary. The header names the failure mode and flow count the figures
// plot when the sweep has several (FigureScope). The sweep command writes
// it with -report; EXPERIMENTS.md is derived from it. The report is
// rendered in memory and reaches w in one Write.
func (o *Outcome) WriteReport(w io.Writer) error {
	g := o.figures()
	base := g.base
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Reproduction report\n\n"+
		"Protocols: %v. Node degrees: %v. %d trials per cell, base seed %d.\n"+
		"Mesh %d×%d; flow of %d-byte packets every %v; failure at %v; horizon %v.\n\n",
		g.protocols, g.degrees, base.Trials, base.Seed,
		base.Rows, base.Cols, base.PacketSize, base.PacketInterval, g.failAt, base.End)
	if g.scope != "" {
		fmt.Fprintf(&b, "%s\n\n", g.scope)
	}

	sections := []struct {
		title string
		table *stats.Table
	}{
		{"Figure 3 — packet drops due to no route vs node degree", o.Figure3Table()},
		{"Figure 4 — TTL expirations (transient loops) vs node degree", o.Figure4Table()},
		{"Figure 6(a) — forwarding path convergence time (s)", o.Figure6aTable()},
		{"Figure 6(b) — network routing convergence time (s)", o.Figure6bTable()},
	}
	for _, s := range sections {
		writeTableSection(&b, s.title, s.table)
	}

	for _, d := range o.SeriesDegrees() {
		fmt.Fprintf(&b, "## Figures 5 and 7 — degree %d\n\n```\n", d)
		b.Write(o.SeriesPlots(d))
		b.WriteString("```\n\n")
	}

	writeTableSection(&b, "Per-cell summary", o.SummaryTable())
	_, err := w.Write(b.Bytes())
	return err
}

// SeriesDegrees returns the figure degrees that get Figure 5/7 time
// series: those the paper plots (3–6).
func (o *Outcome) SeriesDegrees() []int {
	var out []int
	for _, d := range o.figures().degrees {
		if d <= 6 {
			out = append(out, d)
		}
	}
	return out
}

// writeTableSection renders a titled table into b; a bytes.Buffer write
// does not fail.
func writeTableSection(b *bytes.Buffer, title string, t *stats.Table) {
	fmt.Fprintf(b, "## %s\n\n```\n", title)
	t.WriteText(b)
	b.WriteString("```\n\n")
}
