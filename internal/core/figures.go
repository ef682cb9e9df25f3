package core

import (
	"fmt"
	"time"

	"routeconv/internal/stats"
	"routeconv/internal/topology"
)

// SweepResult holds one Result per (protocol, degree) cell of the paper's
// evaluation grid and renders Figures 3–7 from them. The sweep package
// builds it (sweep.Outcome.SweepResult).
type SweepResult struct {
	// Base is the per-cell template the grid was run from; the renderer
	// reads its flow, failure and horizon parameters.
	Base      Config
	Degrees   []int
	Protocols []ProtocolKind
	// Cells is indexed by protocol, then degree.
	Cells map[ProtocolKind]map[int]*Result
}

// cell returns the result for (p, degree), or nil.
func (sr *SweepResult) cell(p ProtocolKind, degree int) *Result {
	if m, ok := sr.Cells[p]; ok {
		return m[degree]
	}
	return nil
}

// degreeTable builds a degree-by-protocol table from a per-cell metric.
func (sr *SweepResult) degreeTable(metricName string, metric func(*Result) float64) *stats.Table {
	header := []string{"degree"}
	for _, p := range sr.Protocols {
		header = append(header, fmt.Sprintf("%s_%s", p, metricName))
	}
	t := stats.NewTable(header...)
	for _, d := range sr.Degrees {
		row := []any{d}
		for _, p := range sr.Protocols {
			if c := sr.cell(p, d); c != nil {
				row = append(row, metric(c))
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
func (sr *SweepResult) Figure2Table() *stats.Table {
	t := stats.NewTable("degree", "nodes", "edges", "diameter", "avgpath")
	for _, d := range sr.Degrees {
		m, err := topology.NewMesh(sr.Base.Rows, sr.Base.Cols, d)
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
func (sr *SweepResult) Figure3Table() *stats.Table {
	return sr.degreeTable("drops", func(r *Result) float64 { return r.MeanNoRouteDrops })
}

// Figure4Table is the paper's Figure 4: mean TTL expirations during
// convergence versus node degree, per protocol.
func (sr *SweepResult) Figure4Table() *stats.Table {
	return sr.degreeTable("ttl", func(r *Result) float64 { return r.MeanTTLDrops })
}

// Figure6aTable is the paper's Figure 6(a): mean forwarding path
// convergence time (seconds) versus node degree.
func (sr *SweepResult) Figure6aTable() *stats.Table {
	return sr.degreeTable("fwdconv_s", func(r *Result) float64 { return r.MeanFwdConv })
}

// Figure6bTable is the paper's Figure 6(b): mean network routing
// convergence time (seconds) versus node degree.
func (sr *SweepResult) Figure6bTable() *stats.Table {
	return sr.degreeTable("routconv_s", func(r *Result) float64 { return r.MeanRoutingConv })
}

// seriesWindow bounds the Figure 5/7 time series: the paper plots from the
// sender start through one minute past the failure.
func (sr *SweepResult) seriesWindow() (nBins int, failBin int) {
	base := sr.Base
	failBin = int((base.FailAt - base.SenderStart) / time.Second)
	nBins = failBin + 60
	max := int((base.End - base.SenderStart) / time.Second)
	if nBins > max {
		nBins = max
	}
	return nBins, failBin
}

// Figure5Table is the paper's Figure 5 for one node degree: instantaneous
// throughput (delivered packets per second) versus time, per protocol.
// Time is in seconds since the sender started (the failure lands at the
// FailAt−SenderStart mark, 10 s with the paper's parameters).
func (sr *SweepResult) Figure5Table(degree int) *stats.Table {
	return sr.seriesTable(degree, "pps", func(r *Result) []float64 { return r.MeanThroughput })
}

// Figure7Table is the paper's Figure 7 for one node degree: mean delay of
// the packets delivered in each second, per protocol.
func (sr *SweepResult) Figure7Table(degree int) *stats.Table {
	return sr.seriesTable(degree, "delay_s", func(r *Result) []float64 { return r.MeanDelay })
}

func (sr *SweepResult) seriesTable(degree int, unit string, series func(*Result) []float64) *stats.Table {
	header := []string{"t_s"}
	for _, p := range sr.Protocols {
		header = append(header, fmt.Sprintf("%s_%s", p, unit))
	}
	t := stats.NewTable(header...)
	nBins, _ := sr.seriesWindow()
	for bin := 0; bin < nBins; bin++ {
		row := []any{bin}
		for _, p := range sr.Protocols {
			c := sr.cell(p, degree)
			if c == nil || bin >= len(series(c)) {
				row = append(row, "-")
			} else {
				row = append(row, series(c)[bin])
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Figure5Plot renders the instantaneous-throughput series for one degree
// as an ASCII chart.
func (sr *SweepResult) Figure5Plot(degree int) *stats.Plot {
	return sr.seriesPlot(degree, fmt.Sprintf("Figure 5 — instantaneous throughput (pps), degree %d", degree),
		func(r *Result) []float64 { return r.MeanThroughput })
}

// Figure7Plot renders the instantaneous-delay series for one degree as an
// ASCII chart.
func (sr *SweepResult) Figure7Plot(degree int) *stats.Plot {
	return sr.seriesPlot(degree, fmt.Sprintf("Figure 7 — instantaneous packet delay (s), degree %d", degree),
		func(r *Result) []float64 { return r.MeanDelay })
}

func (sr *SweepResult) seriesPlot(degree int, title string, series func(*Result) []float64) *stats.Plot {
	nBins, failBin := sr.seriesWindow()
	p := stats.NewPlot(title, fmt.Sprintf("seconds since sender start (failure at %d)", failBin))
	for _, proto := range sr.Protocols {
		c := sr.cell(proto, degree)
		if c == nil {
			continue
		}
		vals := series(c)
		if len(vals) > nBins {
			vals = vals[:nBins]
		}
		p.Add(proto.String(), vals)
	}
	return p
}

// SummaryTable reports, per (protocol, degree), the headline quantities of
// the study in one table: drops by cause, convergence times, delivery
// ratio, and control-plane cost.
func (sr *SweepResult) SummaryTable() *stats.Table {
	t := stats.NewTable("protocol", "degree", "noroute", "noroute_ci95", "ttl", "linkfail", "queue",
		"fwdconv_s", "routconv_s", "transient_paths", "delivery_ratio", "ctrl_msgs")
	for _, p := range sr.Protocols {
		for _, d := range sr.Degrees {
			c := sr.cell(p, d)
			if c == nil {
				continue
			}
			var msgs float64
			for _, tr := range c.Trials {
				msgs += float64(tr.ControlMessages)
			}
			msgs /= float64(len(c.Trials))
			ci := c.CI95Of(func(tr TrialResult) float64 { return float64(tr.NoRouteDrops) })
			t.AddRow(p.String(), d, c.MeanNoRouteDrops, ci, c.MeanTTLDrops, c.MeanLinkDrops,
				c.MeanQueueDrops, c.MeanFwdConv, c.MeanRoutingConv, c.MeanTransientPath,
				c.DeliveryRatio, msgs)
		}
	}
	return t
}
