package sweep

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/stats"
	"routeconv/internal/topology"
)

// figureGrid is the part of a sweep the paper's degree-indexed figures
// plot: the mesh cells of the sweep's first failure mode and first flow
// count, with the protocol and degree axes read from those cells in
// first-seen plan order.
type figureGrid struct {
	// base is the per-cell template; the renderer reads its mesh size,
	// flow and horizon parameters.
	base core.Config
	// failAt is the plotted failure mode's measurement anchor.
	failAt    time.Duration
	protocols []core.ProtocolKind
	degrees   []int
	cells     []*CellOutcome
	scope     string // see FigureScope
}

// figures selects the outcome's figure grid.
func (o *Outcome) figures() *figureGrid {
	g := &figureGrid{base: o.Spec.base()}
	var first *Cell
	for i := range o.Cells {
		c := &o.Cells[i]
		if c.Cell.Topo != "" {
			continue
		}
		if first == nil {
			first = &c.Cell
		}
		if c.Cell.Failure.Name != first.Failure.Name || c.Cell.Flows != first.Flows {
			g.scope = fmt.Sprintf("The figures plot only the cells with failure=%s and flows=%d; the per-cell summary lists every cell.",
				first.Failure.Name, first.Config.Flows)
			continue
		}
		if !slices.Contains(g.protocols, c.Cell.Protocol) {
			g.protocols = append(g.protocols, c.Cell.Protocol)
		}
		if !slices.Contains(g.degrees, c.Cell.Degree) {
			g.degrees = append(g.degrees, c.Cell.Degree)
		}
		g.cells = append(g.cells, c)
	}
	// The failure is the instant the plotted mode's trials measure from.
	cfg := g.base
	if first == nil {
		g.scope = "No cell is a mesh cell, so there are no figures: they plot mesh degrees. The per-cell summary lists every cell."
	} else {
		cfg = first.Config
	}
	g.failAt = cfg.Anchor()
	return g
}

// HasFigures reports whether the sweep has a mesh cell for the figures to
// plot.
func (o *Outcome) HasFigures() bool { return len(o.figures().cells) > 0 }

// result returns the grid's result for (p, degree), or nil.
func (g *figureGrid) result(p core.ProtocolKind, degree int) *core.Result {
	for _, c := range g.cells {
		if c.Cell.Protocol == p && c.Cell.Degree == degree {
			return c.Result
		}
	}
	return nil
}

// FigureScope returns "" when the figures plot every mesh cell of the
// sweep. A sweep of several failure modes or flow counts plots only the
// first of each, and then FigureScope is a sentence naming them; a sweep
// with no mesh cell plots nothing, and FigureScope says so.
func (o *Outcome) FigureScope() string { return o.figures().scope }

// degreeTable builds a degree-by-protocol table from a per-cell metric.
func (g *figureGrid) degreeTable(metricName string, metric func(*core.Result) float64) *stats.Table {
	header := []string{"degree"}
	for _, p := range g.protocols {
		header = append(header, fmt.Sprintf("%s_%s", p, metricName))
	}
	t := stats.NewTable(header...)
	for _, d := range g.degrees {
		row := []any{d}
		for _, p := range g.protocols {
			if r := g.result(p, d); r != nil {
				row = append(row, metric(r))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Figure2Table is the paper's Figure 2 over the swept degrees: the mesh
// the trials run on at each degree, with its node and edge counts,
// diameter and mean shortest-path length.
func (o *Outcome) Figure2Table() *stats.Table {
	g := o.figures()
	t := stats.NewTable("degree", "nodes", "edges", "diameter", "avgpath")
	for _, d := range g.degrees {
		m, err := topology.NewMesh(g.base.Rows, g.base.Cols, d)
		if err != nil {
			t.AddRow(d, "-", "-", "-", "-")
			continue
		}
		avg := topology.NewCSR(m.Graph).AvgPathLengthSampled(m.Len(), 1) // exact: every node a source
		t.AddRow(d, m.Len(), m.NumEdges(), m.Diameter(), avg)
	}
	return t
}

// Figure3Table is the paper's Figure 3: mean packet drops due to no route
// versus node degree, per protocol.
func (o *Outcome) Figure3Table() *stats.Table {
	return o.figures().degreeTable("drops", func(r *core.Result) float64 { return r.MeanNoRouteDrops })
}

// Figure4Table is the paper's Figure 4: mean TTL expirations during
// convergence versus node degree, per protocol.
func (o *Outcome) Figure4Table() *stats.Table {
	return o.figures().degreeTable("ttl", func(r *core.Result) float64 { return r.MeanTTLDrops })
}

// Figure6aTable is the paper's Figure 6(a): mean forwarding path
// convergence time (seconds) versus node degree.
func (o *Outcome) Figure6aTable() *stats.Table {
	return o.figures().degreeTable("fwdconv_s", func(r *core.Result) float64 { return r.MeanFwdConv })
}

// Figure6bTable is the paper's Figure 6(b): mean network routing
// convergence time (seconds) versus node degree.
func (o *Outcome) Figure6bTable() *stats.Table {
	return o.figures().degreeTable("routconv_s", func(r *core.Result) float64 { return r.MeanRoutingConv })
}

// seriesWindow bounds the Figure 5/7 time series: the paper plots from the
// sender start through one minute past the plotted failure.
func (g *figureGrid) seriesWindow() (nBins int, failBin int) {
	base := g.base
	failBin = int((g.failAt - base.SenderStart) / time.Second)
	nBins = min(failBin+60, int((base.End-base.SenderStart)/time.Second))
	return nBins, failBin
}

// Figure5Table is the paper's Figure 5 for one node degree: instantaneous
// throughput (delivered packets per second) versus time, per protocol.
// Time is in seconds since the sender started (the failure lands 10 s in
// with the paper's parameters).
func (o *Outcome) Figure5Table(degree int) *stats.Table {
	return o.figures().seriesTable(degree, "pps", func(r *core.Result) []float64 { return r.MeanThroughput })
}

// Figure7Table is the paper's Figure 7 for one node degree: mean delay of
// the packets delivered in each second, per protocol.
func (o *Outcome) Figure7Table(degree int) *stats.Table {
	return o.figures().seriesTable(degree, "delay_s", func(r *core.Result) []float64 { return r.MeanDelay })
}

func (g *figureGrid) seriesTable(degree int, unit string, series func(*core.Result) []float64) *stats.Table {
	header := []string{"t_s"}
	for _, p := range g.protocols {
		header = append(header, fmt.Sprintf("%s_%s", p, unit))
	}
	t := stats.NewTable(header...)
	nBins, _ := g.seriesWindow()
	for bin := 0; bin < nBins; bin++ {
		row := []any{bin}
		for _, p := range g.protocols {
			r := g.result(p, degree)
			if r == nil || bin >= len(series(r)) {
				row = append(row, "-")
			} else {
				row = append(row, series(r)[bin])
			}
		}
		t.AddRow(row...)
	}
	return t
}

// SeriesPlots renders Figures 5 and 7 for one degree as ASCII charts, the
// instantaneous throughput and then the instantaneous delay: the body of a
// fig5_fig7_degN.plot.txt file and of the report's section for the degree.
func (o *Outcome) SeriesPlots(degree int) []byte {
	g := o.figures()
	var b bytes.Buffer // a bytes.Buffer write does not fail
	g.seriesPlot(degree, fmt.Sprintf("Figure 5 — instantaneous throughput (pps), degree %d", degree),
		func(r *core.Result) []float64 { return r.MeanThroughput }).Write(&b)
	b.WriteString("\n")
	g.seriesPlot(degree, fmt.Sprintf("Figure 7 — instantaneous packet delay (s), degree %d", degree),
		func(r *core.Result) []float64 { return r.MeanDelay }).Write(&b)
	return b.Bytes()
}

func (g *figureGrid) seriesPlot(degree int, title string, series func(*core.Result) []float64) *stats.Plot {
	nBins, failBin := g.seriesWindow()
	p := stats.NewPlot(title, fmt.Sprintf("seconds since sender start (failure at %d)", failBin))
	for _, proto := range g.protocols {
		r := g.result(proto, degree)
		if r == nil {
			continue
		}
		vals := series(r)
		if len(vals) > nBins {
			vals = vals[:nBins]
		}
		p.Add(proto.String(), vals)
	}
	return p
}

// SummaryTable reports the headline quantities of the study for every
// cell, one row each in plan order: drops by cause, convergence times,
// delivery ratio, and control-plane cost. The topo, failure and flows
// columns appear only when the spec sweeps that axis; a topo cell prints
// "-" under degree, a mesh cell "-" under topo.
func (o *Outcome) SummaryTable() *stats.Table {
	topos, failures, flows := len(o.Spec.Topos) > 0, len(o.Spec.Failures) > 0, len(o.Spec.Flows) > 0
	header := []string{"protocol", "degree"}
	if topos {
		header = append(header, "topo")
	}
	if failures {
		header = append(header, "failure")
	}
	if flows {
		header = append(header, "flows")
	}
	t := stats.NewTable(append(header, "noroute", "noroute_ci95", "ttl", "linkfail", "queue",
		"fwdconv_s", "routconv_s", "transient_paths", "delivery_ratio", "ctrl_msgs")...)
	for i := range o.Cells {
		cell, c := &o.Cells[i].Cell, o.Cells[i].Result
		row := []any{cell.Protocol.String(), cell.Degree}
		if cell.Topo != "" {
			row[1] = "-"
		}
		if topos {
			row = append(row, cmp.Or(cell.Topo, "-"))
		}
		if failures {
			row = append(row, cell.Failure.Name)
		}
		if flows {
			row = append(row, cell.Flows)
		}
		var msgs float64
		for _, tr := range c.Trials {
			msgs += float64(tr.ControlMessages)
		}
		msgs /= float64(len(c.Trials))
		ci := c.CI95Of(func(tr core.TrialResult) float64 { return float64(tr.NoRouteDrops) })
		t.AddRow(append(row, c.MeanNoRouteDrops, ci, c.MeanTTLDrops, c.MeanLinkDrops,
			c.MeanQueueDrops, c.MeanFwdConv, c.MeanRoutingConv, c.MeanTransientPath,
			c.DeliveryRatio, msgs)...)
	}
	return t
}
