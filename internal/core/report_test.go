package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// handSweep is a sweep assembled without simulating — one DBF cell at
// degree 4, none at 5 and 8 — enough for the renderer's labels, its
// missing-cell paths and its error paths.
func handSweep(base Config) *SweepResult {
	bins := int((base.End - base.SenderStart) / time.Second)
	res := &Result{Trials: []TrialResult{{}}, MeanThroughput: make([]float64, bins), MeanDelay: make([]float64, bins)}
	return &SweepResult{
		Base:      base,
		Degrees:   []int{4, 5, 8},
		Protocols: []ProtocolKind{ProtoDBF},
		Cells:     map[ProtocolKind]map[int]*Result{ProtoDBF: {4: res}},
	}
}

// TestReportLabelsSchedule checks that the report states the flow and the
// failure instant from the sweep's own parameters: the packet size in
// bytes, the sending interval, and a failure 5 s after the sender starts.
func TestReportLabelsSchedule(t *testing.T) {
	base := DefaultConfig()
	base.SenderStart = base.FailAt - 5*time.Second
	var sb strings.Builder
	if err := handSweep(base).WriteReport(&sb); err != nil {
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
	sr := handSweep(DefaultConfig())
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
