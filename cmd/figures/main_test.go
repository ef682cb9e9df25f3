package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"routeconv/internal/sweep"
)

// TestParseDegrees pins the grammar the -degrees and -series-degrees flags
// accept.
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

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{
		"-trials", "1",
		"-degrees", "4",
		"-protocols", "dbf",
		"-series-degrees", "4",
		"-out", dir,
		"-q",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig3_drops_no_route.txt", "fig3_drops_no_route.csv",
		"fig4_ttl_expirations.txt",
		"fig5_throughput_deg4.csv",
		"fig6a_forwarding_convergence.txt",
		"fig6b_routing_convergence.txt",
		"fig7_delay_deg4.csv",
		"summary.txt",
	} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing output %s: %v", name, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("output %s is empty", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3_drops_no_route.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "degree,dbf_drops") {
		t.Errorf("fig3 CSV header = %q", strings.SplitN(string(data), "\n", 2)[0])
	}
}

func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.md")
	err := run(context.Background(), []string{
		"-trials", "1", "-degrees", "4", "-protocols", "dbf",
		"-series-degrees", "4", "-out", dir, "-report", report, "-q",
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"# Reproduction report", "Figure 3", "Figure 6(b)", "Figures 5 and 7 — degree 4", "Per-cell summary"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-degrees", "junk"},
		{"-protocols", "nonesuch"},
		{"-series-degrees", "x"},
	} {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}
