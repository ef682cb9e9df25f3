package core

import (
	"fmt"
	"io"

	"routeconv/internal/stats"
)

// WriteReport renders the whole sweep as a self-contained markdown report:
// every figure's table, ASCII charts for the time series, and the per-cell
// summary. The sweep command writes it with -report; EXPERIMENTS.md is
// derived from it.
func (sr *SweepResult) WriteReport(w io.Writer) error {
	base := sr.Base
	if _, err := fmt.Fprintf(w, "# Reproduction report\n\n"+
		"Protocols: %v. Node degrees: %v. %d trials per cell, base seed %d.\n"+
		"Mesh %d×%d; flow of %d-byte packets every %v; failure at %v; horizon %v.\n\n",
		sr.Protocols, sr.Degrees, base.Trials, base.Seed,
		base.Rows, base.Cols, base.PacketSize, base.PacketInterval, base.FailAt, base.End); err != nil {
		return err
	}

	sections := []struct {
		title string
		table *stats.Table
	}{
		{"Figure 3 — packet drops due to no route vs node degree", sr.Figure3Table()},
		{"Figure 4 — TTL expirations (transient loops) vs node degree", sr.Figure4Table()},
		{"Figure 6(a) — forwarding path convergence time (s)", sr.Figure6aTable()},
		{"Figure 6(b) — network routing convergence time (s)", sr.Figure6bTable()},
	}
	for _, s := range sections {
		if err := writeTableSection(w, s.title, s.table); err != nil {
			return err
		}
	}

	for _, d := range sr.SeriesDegrees() {
		if _, err := fmt.Fprintf(w, "## Figures 5 and 7 — degree %d\n\n```\n", d); err != nil {
			return err
		}
		if err := sr.Figure5Plot(d).Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := sr.Figure7Plot(d).Write(w); err != nil {
			return err
		}
		if _, err := fmt.Fprint(w, "```\n\n"); err != nil {
			return err
		}
	}

	return writeTableSection(w, "Per-cell summary", sr.SummaryTable())
}

// SeriesDegrees returns the swept degrees that get Figure 5/7 time
// series: those the paper plots (3–6) with at least one cell.
func (sr *SweepResult) SeriesDegrees() []int {
	var out []int
	for _, d := range sr.Degrees {
		if d > 6 {
			continue
		}
		for _, p := range sr.Protocols {
			if sr.cell(p, d) != nil {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

func writeTableSection(w io.Writer, title string, t *stats.Table) error {
	if _, err := fmt.Fprintf(w, "## %s\n\n```\n", title); err != nil {
		return err
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprint(w, "```\n\n")
	return err
}
