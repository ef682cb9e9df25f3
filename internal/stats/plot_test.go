package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPlotBasic(t *testing.T) {
	p := NewPlot("throughput", "seconds")
	p.Add("dbf", []float64{0, 5, 10, 20})
	p.Add("rip", []float64{0, 0, 0, 20})
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"throughput", "*=dbf", "o=rip", "seconds", "20", "0"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+12+2 {
		t.Errorf("plot has %d lines, want 15 (title + 12 rows + axis + label)", len(lines))
	}
}

func TestPlotEmpty(t *testing.T) {
	p := NewPlot("empty", "x")
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty plot output = %q", sb.String())
	}
}

func TestPlotNaNGaps(t *testing.T) {
	p := NewPlot("gaps", "x")
	p.Add("s", []float64{1, math.NaN(), 3})
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	glyphs := strings.Count(sb.String(), "*")
	if glyphs != 3 { // legend + two data points
		t.Errorf("glyph count = %d, want 3 (legend star + 2 points)", glyphs)
	}
}

func TestPlotAllNaN(t *testing.T) {
	p := NewPlot("nan", "x")
	p.Add("s", []float64{math.NaN(), math.NaN()})
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestPlotConstantSeries(t *testing.T) {
	p := NewPlot("flat", "x")
	p.Add("s", []float64{5, 5, 5})
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "***") {
		t.Errorf("flat series not rendered:\n%s", sb.String())
	}
}

func TestPlotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	p := NewPlot("bad", "x")
	p.Add("a", []float64{1, 2})
	p.Add("b", []float64{1})
}

func TestPlotHeight(t *testing.T) {
	p := NewPlot("tall", "x")
	p.Add("s", []float64{1, 2, 3})
	var sb strings.Builder
	if err := p.Write(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 1+plotHeight+2 {
		t.Errorf("plot has %d lines, want %d", len(lines), 1+plotHeight+2)
	}
}
