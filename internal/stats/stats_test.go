package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Sample is one timestamped observation: the binning tests state their
// cases as sample arrays, which BinCounts and BinMeans file into Bins.
type Sample struct {
	At    time.Duration
	Value float64
}

func binAll(samples []Sample, origin, width time.Duration, nBins int) Bins {
	b := NewBins(origin, width, nBins)
	for _, s := range samples {
		b.Add(s.At, s.Value)
	}
	return b
}

// BinCounts returns the number of samples per bin.
func BinCounts(samples []Sample, origin, width time.Duration, nBins int) []float64 {
	return binAll(samples, origin, width, nBins).Count
}

// BinMeans returns the mean value per bin, NaN for an empty one.
func BinMeans(samples []Sample, origin, width time.Duration, nBins int) []float64 {
	b := binAll(samples, origin, width, nBins)
	return b.Means()
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almostEqual(s.Mean, 3) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 5) || !almostEqual(s.Median, 3) {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEqual(s.Std, math.Sqrt(2.5)) {
		t.Errorf("Std = %v, want sqrt(2.5)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("Summarize(nil) = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Errorf("Summarize([7]) = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{2, 4}), 3) {
		t.Error("Mean([2 4]) != 3")
	}
}

func TestBinCounts(t *testing.T) {
	samples := []Sample{
		{At: 0, Value: 1},
		{At: 500 * time.Millisecond},
		{At: time.Second},
		{At: 2500 * time.Millisecond},
		{At: 10 * time.Second}, // outside
	}
	bins := BinCounts(samples, 0, time.Second, 3)
	want := []float64{2, 1, 1}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestBinCountsOrigin(t *testing.T) {
	samples := []Sample{{At: 5 * time.Second}, {At: 4 * time.Second}}
	bins := BinCounts(samples, 5*time.Second, time.Second, 2)
	if bins[0] != 1 || bins[1] != 0 {
		t.Errorf("bins = %v; samples before origin must be ignored", bins)
	}
}

func TestBinMeans(t *testing.T) {
	samples := []Sample{
		{At: 100 * time.Millisecond, Value: 2},
		{At: 200 * time.Millisecond, Value: 4},
		{At: 1500 * time.Millisecond, Value: 10},
	}
	bins := BinMeans(samples, 0, time.Second, 3)
	if !almostEqual(bins[0], 3) || !almostEqual(bins[1], 10) || !math.IsNaN(bins[2]) {
		t.Errorf("bins = %v, want [3 10 NaN]", bins)
	}
}

func TestAverageSeries(t *testing.T) {
	nan := math.NaN()
	avg := AverageSeries([][]float64{
		{1, 2, nan, nan},
		{3, nan, 4, nan},
	})
	if !almostEqual(avg[0], 2) || !almostEqual(avg[1], 2) || !almostEqual(avg[2], 4) || !math.IsNaN(avg[3]) {
		t.Errorf("AverageSeries = %v", avg)
	}
}

func TestAverageSeriesMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	AverageSeries([][]float64{{1}, {1, 2}})
}

func TestAverageSeriesEmpty(t *testing.T) {
	if AverageSeries(nil) != nil {
		t.Error("AverageSeries(nil) != nil")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1, p2 := float64(a%101), float64(b%101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := Percentile(xs, p1), Percentile(xs, p2)
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		return v1 <= v2 && v1 >= sorted[0] && v2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: total bin counts equal the number of in-range samples.
func TestPropertyBinCountsTotal(t *testing.T) {
	f := func(offsets []uint16) bool {
		samples := make([]Sample, len(offsets))
		inRange := 0
		for i, o := range offsets {
			at := time.Duration(o) * time.Millisecond * 10
			samples[i] = Sample{At: at}
			if at < 100*time.Second {
				inRange++
			}
		}
		bins := BinCounts(samples, 0, time.Second, 100)
		total := 0.0
		for _, b := range bins {
			total += b
		}
		return int(total) == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("degree", "rip", "dbf")
	tb.AddRow(3, 251.5, math.NaN())
	tb.AddRow(4, 10.0, 0.25)
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"degree", "rip", "dbf", "251.5", "-", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2.5)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "a,b\n1,2.5\n" {
		t.Errorf("CSV = %q", got)
	}
	// A cell holding the separator is quoted, so the row keeps its width.
	tb.AddRow("torus:rows=5,cols=5", `say "hi"`)
	sb.Reset()
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), "a,b\n1,2.5\n\"torus:rows=5,cols=5\",\"say \"\"hi\"\"\"\n"; got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow(3.0)
	tb.AddRow(0.0)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != "x\n3\n0\n" {
		t.Errorf("CSV = %q, want trailing zeros trimmed", got)
	}
}
