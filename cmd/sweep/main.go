// Command sweep orchestrates experiment grids: it expands a declarative
// sweep specification (protocols × node degrees × failure models) into
// independent cells and executes them on a worker pool with a
// content-addressed result cache and a progress journal. Re-running the
// same sweep serves unchanged cells from the cache; an interrupted sweep
// (Ctrl-C, crash) resumes the same way, since every finished cell is
// already cached, and re-executes only the unfinished cells. The journal
// logs the cells that were simulated; it does not drive the resume, and
// the manifest lists the cache hits.
//
// Usage:
//
//	sweep [-spec spec.json] [-protocols rip,dbf,bgp,bgp3] [-degrees 3-10]
//	      [-topos "ba:n=10000,m=2;fattree:k=8"] [-trials N] [-seed S]
//	      [-scenarios "fail link 3-7 @400s|churn links rate=0.1/s @450s..600s"]
//	      [-shards K] [-metrics] [-out DIR] [-cache DIR] [-workers N]
//	      [-force] [-plan] [-q] [-figures] [-report FILE]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// Outputs, written atomically under -out: summary.{txt,csv} (one row of
// headline metrics per cell, with topo, failure and flows columns for the
// axes swept) and manifest.json (spec, module version, per-cell keys,
// seeds, wall times and cache provenance). -figures adds the paper's
// Figures 2–7 (Pei et al., DSN 2003) as text and CSV files, degree-indexed
// over the mesh cells of the first failure mode and flow count; -report
// writes a markdown report. A full paper-scale run is `sweep -figures
// -trials 100 -degrees 3-16 -out results`.
package main

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"routeconv/internal/core"
	"routeconv/internal/stats"
	"routeconv/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// options holds the parsed command line.
type options struct {
	specPath, protocols, degrees, topos, scenarios, flows, mode string
	trials, shards, workers                                     int
	seed                                                        int64
	outDir, cacheDir, report                                    string
	force, metrics, plan, quiet, figures                        bool
	cpuProfile, memProfile                                      string
}

// newFlagSet declares every sweep flag.
func newFlagSet() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.specPath, "spec", "", "JSON sweep specification (overrides the grid flags)")
	fs.StringVar(&o.protocols, "protocols", "rip,dbf,bgp,bgp3", "comma-separated protocols")
	fs.StringVar(&o.degrees, "degrees", "3-10", "node degrees, e.g. 3-16 or 3,4,5,6 (\"\" with -topos for a topo-only sweep)")
	fs.StringVar(&o.topos, "topos", "", "semicolon-separated topology specs, e.g. ba:n=10000,m=2;fattree:k=8")
	fs.StringVar(&o.scenarios, "scenarios", "", "|-separated scenario scripts swept as failure modes (scripts use ';' internally; see SCENARIOS.md)")
	fs.IntVar(&o.trials, "trials", 20, "trials per cell (paper: 100)")
	fs.Int64Var(&o.seed, "seed", 1, "base random seed")
	fs.StringVar(&o.flows, "flows", "", "flow counts as an extra axis, e.g. 1,100,10000 (default: the base config's single flow)")
	fs.StringVar(&o.mode, "mode", "", "background-flow traffic engine for every cell: packet, fluid, hybrid")
	fs.IntVar(&o.shards, "shards", 0, "split every cell's trials over this many parallel shard simulators (0/1 = sequential)")
	fs.StringVar(&o.outDir, "out", filepath.Join("results", "sweep"), "output directory (summary, figures, manifest, journal)")
	fs.StringVar(&o.cacheDir, "cache", "", "result cache directory (default OUT/cache; \"off\" disables)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent cells (default GOMAXPROCS)")
	fs.BoolVar(&o.force, "force", false, "re-execute every cell, ignoring the cache")
	fs.BoolVar(&o.metrics, "metrics", false, "record obs counters per cell into manifest.json (changes cache keys)")
	fs.BoolVar(&o.plan, "plan", false, "print the expanded cell plan and exit without running")
	fs.BoolVar(&o.quiet, "q", false, "suppress progress output")
	fs.BoolVar(&o.figures, "figures", false, "also write the paper's Figures 2-7 as .txt/.csv tables and ASCII plots into -out")
	fs.StringVar(&o.report, "report", "", "also write a self-contained markdown report to this path")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the sweep to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file after the sweep")
	return fs, o
}

func run(ctx context.Context, args []string, w io.Writer) (err error) {
	fs, o := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := o.spec()
	if err != nil {
		return err
	}
	stop, err := core.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()

	if o.plan {
		cells, err := spec.Expand()
		if err != nil {
			return err
		}
		for _, c := range cells {
			fmt.Fprintf(w, "%-18s trials=%-4d seed=%-4d key=%s\n", c.ID(), c.Config.Trials, c.Config.Seed, c.Key[:16])
		}
		fmt.Fprintf(w, "%d cells\n", len(cells))
		return nil
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	cd := cmp.Or(o.cacheDir, filepath.Join(o.outDir, "cache"))
	if cd == "off" {
		cd = ""
	}
	opts := sweep.Options{
		CacheDir:     cd,
		JournalPath:  filepath.Join(o.outDir, "journal.jsonl"),
		ManifestPath: filepath.Join(o.outDir, "manifest.json"),
		Workers:      o.workers,
		Force:        o.force,
	}
	if !o.quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}

	out, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted — completed cells are cached (unless -cache off); re-run to resume: %w", err)
		}
		return err
	}

	txt, err := writeTable(out.SummaryTable(), filepath.Join(o.outDir, "summary"))
	if err != nil {
		return err
	}
	if _, err := w.Write(txt); err != nil {
		return err
	}
	if o.figures {
		if err := writeFigures(w, out, o.outDir); err != nil {
			return err
		}
	}
	if o.report != "" {
		var buf bytes.Buffer
		if err := out.WriteReport(&buf); err != nil {
			return err
		}
		if err := sweep.WriteFileAtomic(o.report, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.report)
	}
	fmt.Fprintf(w, "\n%d cells (%d simulated, %d cached) in %v\nwrote %s and summary.{txt,csv}\n",
		len(out.Cells), out.Executed, out.CacheHits, out.Wall.Round(1e6),
		filepath.Join(o.outDir, "manifest.json"))
	return nil
}

// spec builds the sweep specification from -spec or the grid flags, then
// applies the axis and engine flags that extend either.
func (o *options) spec() (sweep.Spec, error) {
	var spec sweep.Spec
	if o.specPath != "" {
		s, err := sweep.LoadSpec(o.specPath)
		if err != nil {
			return spec, err
		}
		spec = s
	} else {
		var degrees []int
		if o.degrees != "" {
			d, err := sweep.ParseDegrees(o.degrees)
			if err != nil {
				return spec, err
			}
			degrees = d
		}
		spec = sweep.Spec{
			Protocols: strings.Split(o.protocols, ","),
			Degrees:   degrees,
			Topos:     splitList(o.topos, ";"),
			Trials:    o.trials,
			Seed:      o.seed,
		}
	}
	for i, script := range splitList(o.scenarios, "|") {
		spec.Failures = append(spec.Failures, sweep.FailureMode{Name: fmt.Sprintf("scn%d", i), Scenario: script})
	}
	if o.flows != "" {
		// Flow counts share the degree-list grammar (lists and ranges).
		flows, err := sweep.ParseDegrees(o.flows)
		if err != nil {
			return spec, fmt.Errorf("bad -flows: %w", err)
		}
		spec.Flows = flows
	}
	spec.Mode = cmp.Or(o.mode, spec.Mode)
	spec.Shards = cmp.Or(o.shards, spec.Shards)
	spec.Metrics = spec.Metrics || o.metrics
	return spec, nil
}

// splitList splits s on sep, dropping blank entries.
func splitList(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// writeFigures writes the paper's figures into dir: Figures 2, 3, 4 and 6
// as degree-indexed tables, and Figures 5 and 7 as time-series tables plus
// one ASCII plot file per series degree, after a line naming what they
// leave out (FigureScope).
func writeFigures(w io.Writer, out *sweep.Outcome, dir string) error {
	if scope := out.FigureScope(); scope != "" {
		fmt.Fprintln(w, scope)
	}
	if !out.HasFigures() {
		return nil
	}
	type output struct {
		name  string
		table *stats.Table
	}
	tables := []output{
		{"fig2_topology_family", out.Figure2Table()},
		{"fig3_drops_no_route", out.Figure3Table()},
		{"fig4_ttl_expirations", out.Figure4Table()},
		{"fig6a_forwarding_convergence", out.Figure6aTable()},
		{"fig6b_routing_convergence", out.Figure6bTable()},
	}
	for _, d := range out.SeriesDegrees() {
		tables = append(tables,
			output{fmt.Sprintf("fig5_throughput_deg%d", d), out.Figure5Table(d)},
			output{fmt.Sprintf("fig7_delay_deg%d", d), out.Figure7Table(d)})
	}
	for _, t := range tables {
		if _, err := writeTable(t.table, filepath.Join(dir, t.name)); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s.{txt,csv}\n", filepath.Join(dir, t.name))
	}
	for _, d := range out.SeriesDegrees() {
		path := filepath.Join(dir, fmt.Sprintf("fig5_fig7_deg%d.plot.txt", d))
		if err := sweep.WriteFileAtomic(path, out.SeriesPlots(d), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// writeTable renders a table and writes base.txt and base.csv atomically,
// so an interrupted run never leaves a truncated output. It returns the
// text rendering.
func writeTable(t *stats.Table, base string) ([]byte, error) {
	var txt, csv bytes.Buffer // a bytes.Buffer write does not fail
	t.WriteText(&txt)
	t.WriteCSV(&csv)
	if err := sweep.WriteFileAtomic(base+".txt", txt.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return txt.Bytes(), sweep.WriteFileAtomic(base+".csv", csv.Bytes(), 0o644)
}
