package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// machine is where the numbers of a document were taken.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	GoVersion  string  `json:"go_version"`
	Load1      float64 `json:"load1_at_start"`
}

func thisMachine() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       "100",
		GoVersion:  runtime.Version(),
	}
	if v := os.Getenv("GOGC"); v != "" {
		m.GOGC = v
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			m.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return m
}

// document is the suite's output: every workload's untraced record and,
// from a traced run, its per-layer record.
type document struct {
	Machine   machine   `json:"machine"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Workloads []*record `json:"workloads"`
	Traced    []*record `json:"traced,omitempty"`
}

func (d *document) failed() bool {
	for _, r := range append(append([]*record(nil), d.Workloads...), d.Traced...) {
		if r.Failed > 0 {
			return true
		}
	}
	return false
}

func (d *document) write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runSuite runs every workload in a child process of its own, one at a
// time, so that peak RSS, CPU time and heap state belong to one workload
// and a crash in one does not take the others with it.
func runSuite(seed int64, seconds float64, trace bool, spans string) *document {
	doc := &document{Machine: thisMachine(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, runChild(w.name, seed, seconds, 0, ""))
		if trace {
			path := ""
			if spans != "" {
				path = spans + "." + w.name + ".json"
			}
			doc.Traced = append(doc.Traced, runChild(w.name, seed, seconds, 1, path))
		}
	}
	return doc
}

// runChild re-executes this binary for one workload and reads back the
// record it prints before the contract's line. A child that dies or prints
// nothing usable is one failed unit.
func runChild(name string, seed int64, seconds float64, trace int, spans string) *record {
	broken := func(err error) *record {
		return &record{
			Workload: name, Seed: seed, Traced: trace == 1,
			Attempted: 1, Failed: 1, FailRatio: 1,
			Failures: []string{err.Error()}, Metrics: map[string]metric{},
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return broken(err)
	}
	cmd := exec.Command(exe,
		"-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-spans", spans)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return broken(fmt.Errorf("workload process: %w", err))
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return broken(fmt.Errorf("workload process printed %d lines, want 2", len(lines)))
	}
	var rec record
	if err := json.Unmarshal(lines[len(lines)-2], &rec); err != nil {
		return broken(fmt.Errorf("workload process record: %w", err))
	}
	return &rec
}

// printRecord is the human-readable form of one record.
func printRecord(w io.Writer, r *record) {
	kind, defs := "untraced", endToEnd
	if r.Traced {
		kind, defs = "traced", layerMetrics
	}
	fmt.Fprintf(w, "%s (%s)  seed %d  fail_ratio %g (%d/%d)  hash %.12s", r.Workload, kind, r.Seed, r.FailRatio, r.Failed, r.Attempted, r.ResultHash)
	if !r.Traced {
		fmt.Fprintf(w, "  passes %d  units %d  tail p%d", r.Passes, r.Units, r.TailPct)
	}
	if r.Drift {
		fmt.Fprint(w, "  DRIFT")
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json that -compare and the test
// read.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

func byWorkload(rs []*record) map[string]*record {
	m := make(map[string]*record, len(rs))
	for _, r := range rs {
		m[r.Workload] = r
	}
	return m
}

// compareDocuments prints, per workload and end-to-end metric, A's value,
// B's value and how much worse B is, and reports whether every metric
// stayed within its bound from BENCHMARK.json. Differing result hashes and
// traced counts are printed too; they are for the reader to judge and do
// not decide the outcome.
func compareDocuments(w io.Writer, pathA, pathB, benchmarkPath string) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	ok := true
	inB := byWorkload(b.Workloads)
	for _, ra := range a.Workloads {
		rb := inB[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%s: only in %s\n", ra.Workload, pathA)
			continue
		}
		note := ""
		if ra.ResultHash != rb.ResultHash {
			note = "  result hashes differ"
		}
		fmt.Fprintf(w, "%s%s\n", ra.Workload, note)
		for _, e := range bf.EndToEnd {
			va, vb := ra.Metrics[e.Name].Value, rb.Metrics[e.Name].Value
			if va == 0 {
				fmt.Fprintf(w, "  %-14s missing in %s\n", e.Name, pathA)
				ok = false
				continue
			}
			worse := (vb - va) / va
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > e.Bound {
				verdict = "  WORSE"
				ok = false
			}
			fmt.Fprintf(w, "  %-14s %14.6g %14.6g %-5s %+7.2f%% (bound %g%%)%s\n",
				e.Name, va, vb, e.Unit, 100*(vb-va)/va, 100*e.Bound, verdict)
		}
	}
	tracedB := byWorkload(b.Traced)
	for _, ra := range a.Traced {
		rb := tracedB[ra.Workload]
		if rb == nil {
			continue
		}
		for _, d := range layerMetrics {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			if (d.unit == "count" || d.unit == "bytes") && ma.Value != mb.Value {
				fmt.Fprintf(w, "%s: traced %s differs: %g vs %g\n", ra.Workload, d.name, ma.Value, mb.Value)
			}
		}
	}
	return ok, nil
}
