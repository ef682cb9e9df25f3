package sweep

import (
	"errors"
	"strings"
	"testing"
	"time"

	"routeconv/internal/core"
)

// handSweep is a sweep assembled without simulating — one hand-made DBF
// result at each of the given degrees — enough for the renderer's labels,
// its missing-cell paths and its error paths.
func handSweep(base core.Config, degrees ...int) *Outcome {
	bins := int((base.End - base.SenderStart) / time.Second)
	res := &core.Result{Trials: []core.TrialResult{{}}, MeanThroughput: make([]float64, bins), MeanDelay: make([]float64, bins)}
	out := &Outcome{Spec: Spec{Protocols: []string{"dbf"}, Degrees: degrees, Base: &base}}
	for _, d := range degrees {
		out.Cells = append(out.Cells, CellOutcome{
			Cell:   Cell{Protocol: core.ProtoDBF, Degree: d, Failure: SingleFailure(), Config: base},
			Result: res,
		})
	}
	return out
}

// TestReportLabelsSchedule checks that the report states the flow and the
// failure instant from the sweep's own parameters: the packet size in
// bytes, the sending interval, and a failure 5 s after the sender starts.
func TestReportLabelsSchedule(t *testing.T) {
	base := core.DefaultConfig()
	base.SenderStart = base.FailAt - 5*time.Second
	var sb strings.Builder
	if err := handSweep(base, 4).WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flow of 1000-byte packets every 50ms", "(failure at 5)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "(failure at 10)") {
		t.Error("a plot labels the failure at 10 s where it lands at 5 s")
	}
}

var errDiskFull = errors.New("disk full")

// failAfter is an io.Writer that accepts n writes and fails every later one.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errDiskFull
	}
	w.n--
	return len(p), nil
}

// TestWriteReportPropagatesWriteErrors fails the report's writer at every
// write in turn: each failure must come back out of WriteReport.
func TestWriteReportPropagatesWriteErrors(t *testing.T) {
	sr := handSweep(core.DefaultConfig(), 4)
	for n := 0; ; n++ {
		err := sr.WriteReport(&failAfter{n: n})
		if err == nil {
			if n == 0 {
				t.Fatal("WriteReport succeeded on a writer that fails at once")
			}
			return
		}
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("write %d failed with %v, want %v", n, err, errDiskFull)
		}
	}
}

// TestSeriesDegrees pins the Figure 5/7 rule the report and the figure
// files share: paper degrees 3–6 that have at least one cell.
func TestSeriesDegrees(t *testing.T) {
	sr := handSweep(core.DefaultConfig(), 4, 8)
	if got := sr.SeriesDegrees(); len(got) != 1 || got[0] != 4 {
		t.Errorf("SeriesDegrees() = %v, want [4] (5 has no cell, 8 is past the paper's range)", got)
	}
}

// TestFigure2Table pins the topology family of the paper's Figure 2 on the
// 7×7 mesh: one row per swept degree, "-" where no mesh exists.
func TestFigure2Table(t *testing.T) {
	sr := handSweep(core.DefaultConfig(), 3, 4, 16, 99)
	var sb strings.Builder
	if err := sr.Figure2Table().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "degree,nodes,edges,diameter,avgpath\n" +
		"3,49,65,13,5.548\n" +
		"4,49,84,12,4.667\n" +
		"16,49,276,4,2.143\n" +
		"99,-,-,-,-\n"
	if got := sb.String(); got != want {
		t.Errorf("Figure2Table CSV:\n%s\nwant:\n%s", got, want)
	}
}
