package sweep

import (
	"context"
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"routeconv/internal/core"
)

// shortBase compresses the schedule so a protocol other than slow-MRAI
// BGP converges well within the run: failure at 200 s, horizon 400 s,
// one trial.
func shortBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.SenderStart = 190 * time.Second
	cfg.FailAt = 200 * time.Second
	cfg.End = 400 * time.Second
	cfg.Trials = 1
	return cfg
}

// sweepOf runs every (protocol, degree) cell of base with core.Run and
// assembles the outcome the renderer reads, in plan order.
func sweepOf(t *testing.T, base core.Config, protocols []core.ProtocolKind, degrees []int) *Outcome {
	t.Helper()
	out := &Outcome{Spec: Spec{Degrees: degrees, Base: &base}}
	for _, p := range protocols {
		out.Spec.Protocols = append(out.Spec.Protocols, p.String())
		for _, d := range degrees {
			cfg := base
			cfg.Protocol, cfg.Degree = p, d
			res, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out.Cells = append(out.Cells, CellOutcome{
				Cell:   Cell{Protocol: p, Degree: d, Failure: SingleFailure(), Config: cfg},
				Result: res,
			})
		}
	}
	return out
}

func TestSweepAndTables(t *testing.T) {
	sr := sweepOf(t, shortBase(), []core.ProtocolKind{core.ProtoDBF, core.ProtoBGP3}, []int{4, 6})
	var sb strings.Builder
	if err := sr.Figure3Table().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"degree", "dbf_drops", "bgp3_drops"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 3 table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "4") || !strings.Contains(out, "6") {
		t.Error("figure 3 table missing degree rows")
	}

	sb.Reset()
	if err := sr.Figure5Table(4).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	nBins, _ := sr.figures().seriesWindow()
	if len(lines) != nBins+1 {
		t.Errorf("figure 5 CSV has %d lines, want %d", len(lines), nBins+1)
	}

	for _, tab := range []*struct {
		name string
		fn   func() error
	}{
		{"fig4", func() error { sb.Reset(); return sr.Figure4Table().WriteText(&sb) }},
		{"fig6a", func() error { sb.Reset(); return sr.Figure6aTable().WriteText(&sb) }},
		{"fig6b", func() error { sb.Reset(); return sr.Figure6bTable().WriteText(&sb) }},
		{"fig7", func() error { sb.Reset(); return sr.Figure7Table(6).WriteText(&sb) }},
		{"summary", func() error { sb.Reset(); return sr.SummaryTable().WriteText(&sb) }},
	} {
		if err := tab.fn(); err != nil {
			t.Errorf("%s: %v", tab.name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s rendered empty", tab.name)
		}
	}
}

func TestWriteReportAndPlots(t *testing.T) {
	sr := sweepOf(t, shortBase(), []core.ProtocolKind{core.ProtoDBF, core.ProtoLS}, []int{4})
	var sb strings.Builder
	if err := sr.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# Reproduction report",
		"Figure 3", "Figure 4", "Figure 6(a)", "Figure 6(b)",
		"Figures 5 and 7 — degree 4",
		"Per-cell summary",
		"dbf", "ls",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// Plots render standalone too: Figure 5, then Figure 7.
	plots := string(sr.SeriesPlots(4))
	if i := strings.Index(plots, "Figure 5 — instantaneous throughput"); i < 0 {
		t.Error("figure 5 plot missing title")
	} else if !strings.Contains(plots[i:], "Figure 7 — instantaneous packet delay") {
		t.Error("figure 7 plot missing title, or before figure 5")
	}

	// Missing cells render as dashes, not panics.
	if tab := sr.Figure5Table(99); tab == nil {
		t.Error("Figure5Table(missing degree) returned nil")
	}
}

// TestSummaryRowPerCell sweeps each axis beyond protocol × degree — a
// topology next to a mesh degree, two failure modes, two flow counts —
// and checks that the summary prints one row per executed cell, in plan
// order, with the axis column filled in. The figures plot the first
// failure mode and flow count only, and say so.
func TestSummaryRowPerCell(t *testing.T) {
	const torus = "torus:rows=5,cols=5"
	cases := []struct {
		name    string
		axis    string // the summary column the axis adds
		spec    func(*Spec)
		values  []string // the axis column, row by row
		plotted []int    // the cells the figures plot
		scope   string   // FigureScope, "" when the figures plot every mesh cell
	}{
		{"topos", "topo", func(s *Spec) { s.Protocols = []string{"dbf", "rip"}; s.Topos = []string{torus} },
			[]string{"-", torus, "-", torus}, []int{0, 2}, ""},
		{"failures", "failure", func(s *Spec) {
			s.Failures = []FailureMode{{Name: "once", Scenario: "failpath @40s"}, {Name: "repair", Scenario: "failpath @40s restore=3s"}}
		}, []string{"once", "repair"}, []int{0}, "failure=once and flows=1"},
		{"flows", "flows", func(s *Spec) { s.Flows = []int{1, 4} },
			[]string{"1", "4"}, []int{0}, "failure=single and flows=1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := testSpec([]string{"dbf"}, []int{4}, 1)
			c.spec(&spec)
			out, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := out.SummaryTable().WriteCSV(&sb); err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
			if err != nil {
				t.Fatalf("summary CSV: %v\n%s", err, sb.String())
			}
			if want := []string{"protocol", "degree", c.axis, "noroute"}; !slices.Equal(rows[0][:4], want) {
				t.Fatalf("summary header %v, want it to start %v", rows[0], want)
			}
			rows = rows[1:]
			if len(rows) != out.Executed || len(rows) != len(c.values) {
				t.Fatalf("summary has %d rows for %d executed cells, want %d:\n%s", len(rows), out.Executed, len(c.values), sb.String())
			}
			for i, row := range rows {
				cell := out.Cells[i].Cell
				degree := strconv.Itoa(cell.Degree)
				if cell.Topo != "" {
					degree = "-"
				}
				if want := []string{cell.Protocol.String(), degree, c.values[i]}; !slices.Equal(row[:3], want) {
					t.Errorf("row %d = %v, want cell %s as %v", i, row[:3], cell.ID(), want)
				}
			}

			if got := out.FigureScope(); c.scope == "" && got != "" || !strings.Contains(got, c.scope) {
				t.Errorf("FigureScope() = %q, want it to name %q", got, c.scope)
			}
			// The figures read the mesh cells of the first failure mode and
			// flow count only: the same tables as a sweep of those cells
			// alone.
			plotted := &Outcome{Spec: out.Spec}
			for _, i := range c.plotted {
				plotted.Cells = append(plotted.Cells, out.Cells[i])
			}
			var got, want strings.Builder
			if err := out.Figure3Table().WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := plotted.Figure3Table().WriteCSV(&want); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("Figure 3 plots more than the mesh cells of the first mode and count:\n%s\nwant:\n%s", got.String(), want.String())
			}
		})
	}
}
