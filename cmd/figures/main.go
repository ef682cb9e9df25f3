// Command figures regenerates every table and figure of the paper's
// evaluation (Figures 3–7 of Pei et al., DSN 2003) and writes them as
// aligned text and CSV files.
//
// Usage:
//
//	figures [-trials N] [-degrees 3-16] [-protocols rip,dbf,bgp,bgp3]
//	        [-series-degrees 3,4,5,6] [-seed S] [-out DIR] [-cache DIR]
//
// A full paper-scale run is `figures -trials 100`; the defaults trade
// trial count for wall-clock time while preserving every qualitative
// result.
//
// Figure regeneration is incremental: the sweep behind the figures runs on
// the internal/sweep orchestrator, whose content-addressed cache (under
// -cache, default OUT/.sweep/cache) serves every cell whose configuration
// is unchanged since the last run. Re-running with one new degree only
// simulates that degree's cells; an interrupted run resumes from its
// journal. All outputs are written atomically (temp file + rename), so an
// interrupted run never leaves truncated files in -out.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"routeconv"
	"routeconv/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		trials        = fs.Int("trials", 20, "trials per (protocol, degree) cell (paper: 100)")
		degreesFlag   = fs.String("degrees", "3-10", "node degrees to sweep, e.g. 3-16 or 3,4,5,6")
		protocolsFlag = fs.String("protocols", "rip,dbf,bgp,bgp3", "comma-separated protocols")
		seriesFlag    = fs.String("series-degrees", "3,4,5,6", "degrees for the Figure 5/7 time series")
		seed          = fs.Int64("seed", 1, "base random seed")
		outDir        = fs.String("out", "results", "output directory")
		cacheDir      = fs.String("cache", "", "sweep cache directory (default OUT/.sweep/cache; \"off\" disables caching)")
		report        = fs.String("report", "", "also write a self-contained markdown report to this path")
		quiet         = fs.Bool("q", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	degrees, err := sweep.ParseDegrees(*degreesFlag)
	if err != nil {
		return err
	}
	seriesDegrees, err := sweep.ParseDegrees(*seriesFlag)
	if err != nil {
		return err
	}
	var protocols []string
	for _, name := range strings.Split(*protocolsFlag, ",") {
		name = strings.TrimSpace(name)
		if _, err := routeconv.ParseProtocol(name); err != nil {
			return err
		}
		protocols = append(protocols, name)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	spec := sweep.Spec{
		Name:      "figures",
		Protocols: protocols,
		Degrees:   degrees,
		Trials:    *trials,
		Seed:      *seed,
	}
	stateDir := filepath.Join(*outDir, ".sweep")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return err
	}
	cd := *cacheDir
	switch cd {
	case "":
		cd = filepath.Join(stateDir, "cache")
	case "off":
		cd = ""
	}
	opts := sweep.Options{
		CacheDir:     cd,
		JournalPath:  filepath.Join(stateDir, "journal.jsonl"),
		ManifestPath: filepath.Join(stateDir, "manifest.json"),
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	out, err := sweep.Run(ctx, spec, opts)
	if err != nil {
		return err
	}
	sr := out.SweepResult()

	outputs := []struct {
		name  string
		table *routeconv.Table
	}{
		{"fig3_drops_no_route", sr.Figure3Table()},
		{"fig4_ttl_expirations", sr.Figure4Table()},
		{"fig6a_forwarding_convergence", sr.Figure6aTable()},
		{"fig6b_routing_convergence", sr.Figure6bTable()},
		{"summary", sr.SummaryTable()},
	}
	for _, d := range seriesDegrees {
		if !slices.Contains(degrees, d) {
			continue
		}
		outputs = append(outputs,
			struct {
				name  string
				table *routeconv.Table
			}{fmt.Sprintf("fig5_throughput_deg%d", d), sr.Figure5Table(d)},
			struct {
				name  string
				table *routeconv.Table
			}{fmt.Sprintf("fig7_delay_deg%d", d), sr.Figure7Table(d)},
		)
	}
	for _, o := range outputs {
		if err := writeTable(o.table, filepath.Join(*outDir, o.name)); err != nil {
			return err
		}
		fmt.Printf("wrote %s.{txt,csv}\n", filepath.Join(*outDir, o.name))
	}
	for _, d := range seriesDegrees {
		if !slices.Contains(degrees, d) {
			continue
		}
		path := filepath.Join(*outDir, fmt.Sprintf("fig5_fig7_deg%d.plot.txt", d))
		var buf bytes.Buffer
		if err := sr.Figure5Plot(d).Write(&buf); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(&buf); err != nil {
			return err
		}
		if err := sr.Figure7Plot(d).Write(&buf); err != nil {
			return err
		}
		if err := sweep.WriteFileAtomic(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *report != "" {
		var buf bytes.Buffer
		if err := sr.WriteReport(&buf); err != nil {
			return err
		}
		if err := sweep.WriteFileAtomic(*report, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *report)
	}
	return nil
}

// writeTable renders a table and writes the .txt and .csv files atomically,
// so an interrupted run never leaves a truncated output.
func writeTable(t *routeconv.Table, base string) error {
	var txt bytes.Buffer
	if err := t.WriteText(&txt); err != nil {
		return err
	}
	if err := sweep.WriteFileAtomic(base+".txt", txt.Bytes(), 0o644); err != nil {
		return err
	}
	var csv bytes.Buffer
	if err := t.WriteCSV(&csv); err != nil {
		return err
	}
	return sweep.WriteFileAtomic(base+".csv", csv.Bytes(), 0o644)
}
