package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"routeconv/internal/core"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode holds BENCHMARK.json and the tables in the
// code together: same workloads, same metric names and units, same order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bf.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := bf.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, e.Name, e.Unit, d.name, d.unit)
		}
		if e := bf.EndToEnd[i]; e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, d := range layerMetrics {
		if e := bf.PerLayer[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, e.Name, e.Unit, d.name, d.unit)
		}
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside the contract's alphabet", d.name)
		}
	}
}

// exact reports whether a per-layer metric is a count that must repeat
// exactly between two traced passes of one commit.
func exact(d metricDef) bool {
	return d.unit == "count" || d.unit == "bytes" || d.unit == "1/trial"
}

// TestEveryWorkloadTiny runs every workload at tinySizes, untraced once and
// traced twice, and checks what a reader of the output relies on: every
// metric is there, nothing failed, counts repeat, tracing changes no
// result, and each mechanism's counters move on its own workload and stay
// at zero on the ones that bypass it.
func TestEveryWorkloadTiny(t *testing.T) {
	scratchRoot = t.TempDir()
	layers := map[string]map[string]metric{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rec, err := measure(w, 1, 0, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.FailRatio != 0 {
				t.Fatalf("untraced: %d of %d units failed: %v", rec.Failed, rec.Attempted, rec.Failures)
			}
			if rec.Units < minUnits {
				t.Errorf("untraced: %d timed units, want at least %d", rec.Units, minUnits)
			}
			for _, d := range endToEnd {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("untraced: %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if len(rec.Metrics) != len(endToEnd) {
				t.Errorf("untraced: %d metrics, want exactly the %d end-to-end ones", len(rec.Metrics), len(endToEnd))
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			a, err := traceWorkload(w, 1, tinySizes, spans)
			if err != nil {
				t.Fatal(err)
			}
			b, err := traceWorkload(w, 1, tinySizes, "")
			if err != nil {
				t.Fatal(err)
			}
			if a.Failed != 0 || b.Failed != 0 {
				t.Fatalf("traced: failures %v %v", a.Failures, b.Failures)
			}
			layers[w.name] = a.Metrics
			if a.ResultHash != rec.ResultHash {
				t.Errorf("traced result hash %.12s differs from untraced %.12s", a.ResultHash, rec.ResultHash)
			}
			if len(a.Metrics) != len(layerMetrics) {
				t.Errorf("traced: %d metrics, want exactly the %d per-layer ones", len(a.Metrics), len(layerMetrics))
			}
			for _, d := range layerMetrics {
				ma, ok := a.Metrics[d.name]
				if !ok || ma.Unit != d.unit || math.IsNaN(ma.Value) || math.IsInf(ma.Value, 0) {
					t.Errorf("traced: %s = %+v (present %v)", d.name, ma, ok)
				}
				if mb := b.Metrics[d.name]; exact(d) && ma.Value != mb.Value {
					t.Errorf("traced: %s is %g in one pass and %g in the next", d.name, ma.Value, mb.Value)
				}
			}
			if v := a.Metrics["core.run_self_s"].Value; v < 0 {
				t.Errorf("core.run_self_s = %g, want >= 0", v)
			}
			if data, err := os.ReadFile(spans); err != nil || !bytes.Contains(data, []byte(`"core.run"`)) {
				t.Errorf("spans file has no core.run span (read error %v)", err)
			}
		})
	}
	if t.Failed() {
		return
	}
	positiveOnlyOn := func(metric, on string) {
		for name, m := range layers {
			if v := m[metric].Value; (name == on) != (v > 0) {
				t.Errorf("%s on %s = %g", metric, name, v)
			}
		}
	}
	positiveOnlyOn("netsim.fluid_settles", "hybrid-1m")
	positiveOnlyOn("netsim.shard_barrier_waits", "ba4k-rip-shards2")
	positiveOnlyOn("sweep.cache_hits", "figsweep-warm")
	for name, m := range layers {
		if v := m["scenario.events"].Value; (name == "churn49") != (v > 1) {
			t.Errorf("scenario.events on %s = %g per trial", name, v)
		}
	}
	if v := layers["figsweep-warm"]["sim.events_fired"].Value; v != 0 {
		t.Errorf("figsweep-warm fired %g events; cached cells simulate nothing", v)
	}
}

func TestTailPercent(t *testing.T) {
	for _, c := range []struct{ n, want int }{{3, 50}, {49, 50}, {50, 80}, {99, 80}, {100, 90}, {2000, 90}} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %g, want 5", got)
	}
	if got := percentile(xs, 95); got != 10 {
		t.Errorf("p95 = %g, want 10", got)
	}
	// A cliff at p80: the window takes 70–90 %, one sample from either side.
	cliff := []float64{1, 1, 1, 1, 1, 1, 1, 1, 9, 9}
	if got := tailValue(cliff, 80); got != 5 {
		t.Errorf("smoothed p80 across the cliff = %g, want 5", got)
	}
	if got := tailValue(xs[:3], 50); got != 2 {
		t.Errorf("tail of three samples = %g, want their median 2", got)
	}
}

// TestHashTrials pins what the result hash is for: equal results hash
// equal even with NaN in a series, and any field moving moves the hash.
func TestHashTrials(t *testing.T) {
	tr := core.TrialResult{Seed: 7, Sent: 10, Delivered: 9, Delay: []float64{0.1, math.NaN()}, Throughput: []float64{20, 0}}
	same := tr
	same.Delay = []float64{0.1, math.NaN()}
	if hashTrials([]core.TrialResult{tr}) != hashTrials([]core.TrialResult{same}) {
		t.Error("equal trials hash differently")
	}
	moved := tr
	moved.Delivered = 8
	if hashTrials([]core.TrialResult{tr}) == hashTrials([]core.TrialResult{moved}) {
		t.Error("a changed field left the hash alone")
	}
}

func TestCompareDocuments(t *testing.T) {
	dir := t.TempDir()
	doc := func(wall, alloc float64, hash string) *document {
		rec := &record{Workload: "paper49", ResultHash: hash, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metric{1, d.unit}
		}
		rec.Metrics["wall_s"] = metric{wall, "s"}
		rec.Metrics["alloc_mb"] = metric{alloc, "MB"}
		return &document{Workloads: []*record{rec}}
	}
	write := func(name string, d *document) string {
		path := filepath.Join(dir, name)
		if err := d.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := map[string]float64{}
	for _, e := range bf.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	base := write("a.json", doc(1, 100, "h1"))
	within := write("b.json", doc(1+bounds["wall_s"]/2, 100, "h2"))
	faster := write("c.json", doc(0.5, 100, "h1"))
	fatter := write("d.json", doc(1, 100*(1+2*bounds["alloc_mb"]), "h1"))

	for _, c := range []struct {
		name, path string
		ok         bool
		says       string
	}{
		{"within the bound", within, true, "result hashes differ"},
		{"an improvement", faster, true, "-50.00%"},
		{"an allocation regression", fatter, false, "WORSE"},
	} {
		var out bytes.Buffer
		ok, err := compareDocuments(&out, base, c.path, filepath.Join("..", "BENCHMARK.json"))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: ok = %v, want %v, and %q in:\n%s", c.name, ok, c.ok, c.says, out.String())
		}
	}
}
