package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"routeconv/internal/sweep"
)

// fastSpec is a sweep spec small enough for unit tests: a short horizon
// and one protocol at two degrees.
const fastSpec = `{
	"name": "unit",
	"protocols": ["dbf"],
	"degrees": [3, 4],
	"trials": 1,
	"seed": 1,
	"end": "450s"
}`

func writeSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(fastSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runQuiet(args ...string) error {
	return run(context.Background(), args, io.Discard)
}

func TestRunEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	spec := writeSpec(t)
	if err := runQuiet("-spec", spec, "-out", out, "-q"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"summary.txt", "summary.csv", "manifest.json", "journal.jsonl"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	var m struct {
		TotalCells int `json:"total_cells"`
		Executed   int `json:"executed"`
		CacheHits  int `json:"cache_hits"`
	}
	read := func() {
		data, err := os.ReadFile(filepath.Join(out, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if m.TotalCells != 2 || m.Executed != 2 || m.CacheHits != 0 {
		t.Fatalf("first run manifest: %+v", m)
	}
	// Second invocation: everything from cache.
	if err := runQuiet("-spec", spec, "-out", out, "-q"); err != nil {
		t.Fatal(err)
	}
	read()
	if m.CacheHits != 2 || m.Executed != 0 {
		t.Fatalf("second run manifest not fully cached: %+v", m)
	}
}

func TestRunPlanMode(t *testing.T) {
	spec := writeSpec(t)
	// -plan only expands; it must not create any output directory.
	out := filepath.Join(t.TempDir(), "nonexistent")
	if err := runQuiet("-spec", spec, "-out", out, "-plan"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("plan mode touched the output directory")
	}
}

func TestRunGridFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	if err := runQuiet("-protocols", "dbf", "-degrees", "3", "-trials", "1", "-out", out, "-q"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "summary.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "protocol,degree,") {
		t.Errorf("summary header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	out := t.TempDir()
	for _, args := range [][]string{
		{"-degrees", "junk"},
		{"-protocols", "nonesuch", "-degrees", "3"},
		{"-spec", "/nonexistent/spec.json"},
	} {
		if err := runQuiet(append(args, "-out", out)...); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFlags gives every flag a value that parses and, where one exists, a
// command line that run must reject. A flag the table does not list fails
// the test.
func TestFlags(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t)
	missing := filepath.Join(dir, "missing", "file")
	notDir := filepath.Join(dir, "plain")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	quick := []string{"-spec", spec, "-out", filepath.Join(dir, "out"), "-q"}
	cases := []struct {
		name, good string
		bad        []string // nil: the flag has no invalid value
	}{
		{"spec", spec, []string{"-spec", missing}},
		{"protocols", "dbf", []string{"-protocols", "nonesuch", "-plan"}},
		{"degrees", "3,4", []string{"-degrees", "junk"}},
		{"topos", "fattree:k=4", []string{"-degrees", "", "-topos", "nonesuch:n=1", "-plan"}},
		{"scenarios", "failpath @400s", []string{"-scenarios", "explode @400s", "-plan"}},
		{"trials", "3", []string{"-trials", "x"}},
		{"seed", "5", []string{"-seed", "x"}},
		{"flows", "1,10", []string{"-flows", "junk"}},
		{"mode", "fluid", []string{"-mode", "warp", "-plan"}},
		{"shards", "2", []string{"-shards", "x"}},
		{"out", dir, append(quick, "-out", notDir)},
		{"cache", "off", append(quick, "-cache", filepath.Join(notDir, "cache"))},
		{"workers", "2", []string{"-workers", "x"}},
		{"force", "true", []string{"-force=maybe"}},
		{"metrics", "true", []string{"-metrics=maybe"}},
		{"plan", "true", []string{"-plan=maybe"}},
		{"q", "true", []string{"-q=maybe"}},
		{"figures", "true", []string{"-figures=maybe"}},
		{"report", filepath.Join(dir, "r.md"), append(quick, "-report", missing)},
		{"cpuprofile", filepath.Join(dir, "cpu.prof"), []string{"-spec", spec, "-plan", "-cpuprofile", missing}},
		{"memprofile", filepath.Join(dir, "mem.prof"), []string{"-spec", spec, "-plan", "-memprofile", missing}},
	}
	listed := map[string]bool{}
	for _, c := range cases {
		listed[c.name] = true
		fs, _ := newFlagSet()
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-" + c.name + "=" + c.good}); err != nil {
			t.Errorf("-%s=%s: %v", c.name, c.good, err)
		} else if f := fs.Lookup(c.name); f.Value.String() == f.DefValue {
			t.Errorf("-%s=%s left the default %q", c.name, c.good, f.DefValue)
		}
		if c.bad != nil {
			if err := runQuiet(c.bad...); err == nil {
				t.Errorf("run(%q) succeeded, want error", c.bad)
			}
		}
	}
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		if !listed[f.Name] {
			t.Errorf("flag -%s has no case in TestFlags", f.Name)
		}
	})
}

// TestParseDegrees pins the grammar the -degrees and -flows flags accept.
func TestParseDegrees(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"3-6", []int{3, 4, 5, 6}, false},
		{"4", []int{4}, false},
		{"3,5,8", []int{3, 5, 8}, false},
		{"3-5,8", []int{3, 4, 5, 8}, false},
		{" 3 , 4 ", []int{3, 4}, false},
		{"", nil, true},
		{"6-3", nil, true},
		{"abc", nil, true},
		{"3-x", nil, true},
	}
	for _, c := range cases {
		got, err := sweep.ParseDegrees(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseDegrees(%q) succeeded with %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDegrees(%q): %v", c.in, err)
		} else if !slices.Equal(got, c.want) {
			t.Errorf("ParseDegrees(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFigures runs the -figures mode: the paper's figure files and the
// markdown report from one sweep.
func TestFigures(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.md")
	args := []string{"-figures", "-trials", "1", "-degrees", "4,8", "-protocols", "dbf", "-out", dir, "-q"}

	t.Run("end-to-end", func(t *testing.T) {
		if err := runQuiet(args...); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{
			"fig2_topology_family.txt", "fig2_topology_family.csv",
			"fig3_drops_no_route.txt", "fig3_drops_no_route.csv",
			"fig4_ttl_expirations.txt",
			"fig5_throughput_deg4.csv",
			"fig5_fig7_deg4.plot.txt",
			"fig6a_forwarding_convergence.txt",
			"fig6b_routing_convergence.txt",
			"fig7_delay_deg4.csv",
			"summary.txt",
		} {
			if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(data) == 0 {
				t.Errorf("output %s missing or empty: %v", name, err)
			}
		}
		// Degree 8 is swept but outside the paper's time-series range.
		if _, err := os.Stat(filepath.Join(dir, "fig5_throughput_deg8.csv")); !os.IsNotExist(err) {
			t.Errorf("fig5 written for degree 8: %v", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "fig3_drops_no_route.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "degree,dbf_drops") {
			t.Errorf("fig3 CSV header = %q", strings.SplitN(string(data), "\n", 2)[0])
		}
	})

	t.Run("report", func(t *testing.T) {
		if err := runQuiet(append(args, "-report", report)...); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(report)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"# Reproduction report", "Figure 3", "Figure 6(b)", "Figures 5 and 7 — degree 4", "Per-cell summary"} {
			if !strings.Contains(string(data), want) {
				t.Errorf("report missing %q", want)
			}
		}
	})

	t.Run("rejects-bad-flags", func(t *testing.T) {
		for _, bad := range [][]string{
			{"-figures", "-degrees", "junk"},
			{"-figures", "-protocols", "nonesuch"},
		} {
			bad = append(bad, "-out", dir)
			if err := runQuiet(bad...); err == nil {
				t.Errorf("run(%v) succeeded, want error", bad)
			}
		}
	})
}

// The figures and the report place the failure at the plotted failure
// mode's measurement anchor, not at the base config's FailAt: a path
// failure at 450 s is reported at 7m30s, labelled 60 s after the sender
// starts (390 s), and the Figure 5/7 window ends 60 s after it. An earlier
// loss or cost-out event does not move the failure; a churn window anchors
// at its start, and a script that only costs a link out anchors at the
// cost-out. A failure before the sender starts is a configuration error
// that names the anchor and SenderStart.
func TestFiguresFollowScriptedFailure(t *testing.T) {
	for _, tc := range []struct {
		script  string
		failure string // the report header's failure time
		failBin string // the chart label's failure bin
		lastBin string // the last bin of the Figure 5/7 series
		err     string // when set, the sweep fails with this error
	}{
		{"failpath @450s", "7m30s", "60", "119", ""},
		{"loss link 3-4 p=0.1 @100s; failpath @450s", "7m30s", "60", "119", ""},
		{"costout link 3-4 @100s; failpath @400s", "6m40s", "10", "69", ""},
		{"churn links rate=0.5/s down=2s @420s..460s", "7m0s", "30", "89", ""},
		{"costout link 3-4 @410s", "6m50s", "20", "79", ""},
		{"failpath @100s", "", "", "", "measurement anchor 1m40s (the script's first failure) before SenderStart 6m30s"},
	} {
		t.Run(tc.script, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "report.md")
			err := runQuiet("-scenarios", tc.script, "-degrees", "4", "-protocols", "dbf", "-trials", "1",
				"-figures", "-report", report, "-out", dir, "-q")
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Errorf("error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(report)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"failure at " + tc.failure + ";", "(failure at " + tc.failBin + ")"} {
				if !strings.Contains(string(data), want) {
					t.Errorf("report does not say %q", want)
				}
			}
			for _, name := range []string{"fig5_throughput_deg4.csv", "fig7_delay_deg4.csv"} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				rows := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
				last, _, _ := strings.Cut(rows[len(rows)-1], ",")
				if last != tc.lastBin {
					t.Errorf("%s: last bin %s, want %s (the window ends 60 s after the failure)", name, last, tc.lastBin)
				}
			}
		})
	}
}

// A sweep with no mesh cell has nothing for the degree-indexed figures to
// plot: -figures writes no figure file and says why in one line.
func TestFiguresWithoutMeshCells(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), []string{"-degrees", "", "-topos", "torus:rows=5,cols=5", "-protocols", "dbf",
		"-trials", "1", "-figures", "-out", dir, "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	figs, err := filepath.Glob(filepath.Join(dir, "fig*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 0 {
		t.Errorf("wrote %d figure files for a sweep without mesh cells: %v", len(figs), figs)
	}
	var said []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "mesh cell") {
			said = append(said, line)
		}
	}
	if len(said) != 1 || strings.Contains(out.String(), "wrote "+filepath.Join(dir, "fig")) {
		t.Errorf("output names the missing mesh cells in %d lines, want 1:\n%s", len(said), out.String())
	}
}

// TestResultsSlice regenerates a slice of the committed results/ — degrees
// 3 and 6 of the paper's four protocols at EXPERIMENTS.md's 30 trials,
// uncached — and compares it with the committed files: every summary and
// degree-table row must appear verbatim in its committed file, and the
// Figure 5/7 series of both degrees must match byte for byte. It is the
// fast local check; CI regenerates and compares all of results/.
func TestResultsSlice(t *testing.T) {
	dir := t.TempDir()
	if err := runQuiet("-figures", "-trials", "30", "-degrees", "3,6", "-protocols", "rip,dbf,bgp,bgp3",
		"-cache", "off", "-out", dir, "-q"); err != nil {
		t.Fatal(err)
	}
	committed := filepath.Join("..", "..", "results")
	read := func(dir, name string) string {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, name := range []string{
		"summary.csv", "fig3_drops_no_route.csv", "fig4_ttl_expirations.csv",
		"fig6a_forwarding_convergence.csv", "fig6b_routing_convergence.csv",
	} {
		want := strings.Split(read(committed, name), "\n")
		for _, row := range strings.Split(strings.TrimSpace(read(dir, name)), "\n") {
			if !slices.Contains(want, row) {
				t.Errorf("%s: row %q is not in the committed file", name, row)
			}
		}
	}
	for _, d := range []int{3, 6} {
		for _, name := range []string{
			fmt.Sprintf("fig5_throughput_deg%d.txt", d), fmt.Sprintf("fig5_throughput_deg%d.csv", d),
			fmt.Sprintf("fig7_delay_deg%d.txt", d), fmt.Sprintf("fig7_delay_deg%d.csv", d),
			fmt.Sprintf("fig5_fig7_deg%d.plot.txt", d),
		} {
			if read(dir, name) != read(committed, name) {
				t.Errorf("%s differs from the committed file", name)
			}
		}
	}
}
