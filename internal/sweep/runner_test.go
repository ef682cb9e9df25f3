package sweep

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"routeconv/internal/core"
)

// testSpec returns a fast sweep: a short warm-up and horizon cut each
// cell to tens of milliseconds while leaving the full pipeline intact.
func testSpec(protocols []string, degrees []int, trials int) Spec {
	base := core.DefaultConfig()
	base.SenderStart = 30 * time.Second
	base.FailAt = 40 * time.Second
	base.End = 70 * time.Second
	return Spec{
		Name:      "test",
		Protocols: protocols,
		Degrees:   degrees,
		Trials:    trials,
		Seed:      1,
		Base:      &base,
	}
}

func TestRunColdThenCached(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf", "rip"}, []int{3, 4}, 2)
	opts := Options{CacheDir: filepath.Join(dir, "cache")}

	cold, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Executed != 4 || cold.CacheHits != 0 {
		t.Fatalf("cold run: executed %d, hits %d; want 4, 0", cold.Executed, cold.CacheHits)
	}

	warm, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Executed != 0 || warm.CacheHits != 4 {
		t.Fatalf("warm run: executed %d, hits %d; want 0, 4", warm.Executed, warm.CacheHits)
	}

	// Cached results are bit-identical in every aggregate to the fresh
	// ones (NaN-aware: delay bins with no arrivals are NaN).
	for i := range cold.Cells {
		a, b := cold.Cells[i].Result, warm.Cells[i].Result
		if len(a.Trials) != len(b.Trials) {
			t.Fatalf("cell %s: trials %d vs %d", cold.Cells[i].Cell.ID(), len(a.Trials), len(b.Trials))
		}
		for _, pair := range [][2]float64{
			{a.MeanNoRouteDrops, b.MeanNoRouteDrops},
			{a.MeanTTLDrops, b.MeanTTLDrops},
			{a.MeanFwdConv, b.MeanFwdConv},
			{a.MeanRoutingConv, b.MeanRoutingConv},
			{a.DeliveryRatio, b.DeliveryRatio},
			{a.MeanDelayP95, b.MeanDelayP95},
		} {
			if pair[0] != pair[1] && !(math.IsNaN(pair[0]) && math.IsNaN(pair[1])) {
				t.Errorf("cell %s: cached aggregate %v != fresh %v", cold.Cells[i].Cell.ID(), pair[1], pair[0])
			}
		}
	}
}

// TestRunCachedSpeedup is the acceptance check: running the same sweep
// twice back-to-back, the second run is served entirely from the cache and
// takes at least 10× less wall time.
func TestRunCachedSpeedup(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf", "rip", "bgp3"}, []int{3, 4}, 3)
	opts := Options{CacheDir: filepath.Join(dir, "cache")}

	cold, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != len(warm.Cells) || warm.Executed != 0 {
		t.Fatalf("second run not 100%% cached: executed %d, hits %d of %d", warm.Executed, warm.CacheHits, len(warm.Cells))
	}
	if warm.Wall*10 > cold.Wall {
		t.Errorf("cached run not ≥10× faster: cold %v, cached %v", cold.Wall, warm.Wall)
	}
}

func TestRunCacheMissOnChangedConfig(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheDir: filepath.Join(dir, "cache")}
	spec := testSpec([]string{"dbf"}, []int{3}, 2)
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	// A different seed is a different experiment: every cell must miss.
	spec.Seed = 2
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHits != 0 || out.Executed != 1 {
		t.Fatalf("changed config hit the cache: executed %d, hits %d", out.Executed, out.CacheHits)
	}
}

func TestRunCorruptCacheEntryReExecutes(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	opts := Options{CacheDir: cacheDir}
	spec := testSpec([]string{"dbf"}, []int{3}, 2)
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.gob"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries: %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("truncated garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 || out.CacheHits != 0 {
		t.Fatalf("corrupt entry served: executed %d, hits %d", out.Executed, out.CacheHits)
	}
}

func TestRunForceIgnoresCache(t *testing.T) {
	dir := t.TempDir()
	opts := Options{CacheDir: filepath.Join(dir, "cache")}
	spec := testSpec([]string{"dbf"}, []int{3}, 2)
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	opts.Force = true
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 1 || out.CacheHits != 0 {
		t.Fatalf("force run used cache: executed %d, hits %d", out.Executed, out.CacheHits)
	}
}

// TestRunResume journals N of M cells (by sweeping a sub-grid first, into
// the same cache and journal) and verifies the full sweep re-executes only
// the M−N unfinished cells.
func TestRunResume(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
	}
	// N = 2 cells finish before the "interrupt"...
	partial := testSpec([]string{"dbf"}, []int{3, 4}, 2)
	if _, err := Run(context.Background(), partial, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(readJournal(t, opts.JournalPath)); n != 2 {
		t.Fatalf("journaled %d cells, want 2", n)
	}
	// ... then the full M = 6-cell sweep resumes: only M−N = 4 execute.
	full := testSpec([]string{"dbf", "rip", "bgp3"}, []int{3, 4}, 2)
	out, err := Run(context.Background(), full, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 4 || out.CacheHits != 2 {
		t.Fatalf("resume executed %d (hits %d), want 4 (hits 2)", out.Executed, out.CacheHits)
	}
	if n := len(readJournal(t, opts.JournalPath)); n != 6 {
		t.Errorf("journal has %d cells after resume, want 6", n)
	}
}

// TestRunInterruptedMidSweep cancels the context as soon as the first cell
// completes, then resumes: the journaled cells must not re-execute.
func TestRunInterruptedMidSweep(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf", "rip"}, []int{3, 4}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{
		CacheDir:    filepath.Join(dir, "cache"),
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		Workers:     1,
		Progress: func(line string) {
			if strings.Contains(line, "ms") { // a completed-cell line
				once.Do(cancel)
			}
		},
	}
	if _, err := Run(ctx, spec, opts); err != context.Canceled {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	n := len(readJournal(t, opts.JournalPath))
	if n == 0 || n >= 4 {
		t.Fatalf("journaled %d of 4 cells across the interrupt, want 1..3", n)
	}
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Executed != 4-n || out.CacheHits != n {
		t.Fatalf("resume executed %d (hits %d), want %d (hits %d)", out.Executed, out.CacheHits, 4-n, n)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := testSpec([]string{"dbf"}, []int{3}, 1)
	if _, err := Run(ctx, spec, Options{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestRunWritesManifest(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf", "rip"}, []int{3}, 2)
	path := filepath.Join(dir, "manifest.json")
	opts := Options{CacheDir: filepath.Join(dir, "cache"), ManifestPath: path}
	out, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.TotalCells != 2 || m.Executed != 2 || len(m.Cells) != 2 {
		t.Fatalf("manifest totals wrong: %+v", m)
	}
	if m.ModuleVersion != Version() || m.GoVersion == "" {
		t.Errorf("manifest provenance wrong: %+v", m)
	}
	for i, c := range m.Cells {
		if c.Key != out.Cells[i].Cell.Key {
			t.Errorf("manifest cell %d key mismatch", i)
		}
		if c.Seed != 1 || c.Trials != 2 {
			t.Errorf("manifest cell %d seed/trials: %+v", i, c)
		}
	}
	if len(m.Spec.Protocols) != 2 {
		t.Errorf("manifest spec not recorded: %+v", m.Spec)
	}
}

func TestRunProgressReporting(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf"}, []int{3, 4}, 2)
	var mu sync.Mutex
	var lines []string
	opts := Options{
		CacheDir:      filepath.Join(dir, "cache"),
		Progress:      func(l string) { mu.Lock(); lines = append(lines, l); mu.Unlock() },
		ProgressEvery: time.Millisecond,
	}
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var sawCell, sawSummary, sawDone bool
	for _, l := range lines {
		if strings.Contains(l, "dbf/d3/single") {
			sawCell = true
		}
		if strings.Contains(l, "cells/s") && strings.Contains(l, "ETA") {
			sawSummary = true
		}
		if strings.Contains(l, "sweep done") {
			sawDone = true
		}
	}
	if !sawCell || !sawSummary || !sawDone {
		t.Errorf("progress lines missing (cell=%v summary=%v done=%v):\n%s", sawCell, sawSummary, sawDone, strings.Join(lines, "\n"))
	}
}

func TestOutcomeSweepResult(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec([]string{"dbf", "rip"}, []int{3, 4}, 2)
	out, err := Run(context.Background(), spec, Options{CacheDir: filepath.Join(dir, "cache")})
	if err != nil {
		t.Fatal(err)
	}
	sr := out.SweepResult()
	if len(sr.Protocols) != 2 || len(sr.Degrees) != 2 {
		t.Fatalf("sweep result shape: %v × %v", sr.Protocols, sr.Degrees)
	}
	for _, p := range sr.Protocols {
		for _, d := range sr.Degrees {
			if sr.Cells[p][d] == nil {
				t.Errorf("missing cell %v/%d", p, d)
			}
		}
	}
	// The figure tables render from it.
	if got := sr.Figure3Table(); got == nil {
		t.Error("Figure3Table nil")
	}
}
