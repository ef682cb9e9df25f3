package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routeconv/internal/core"
)

// Options tunes a sweep run. The zero value runs every cell in-process
// with GOMAXPROCS workers, no cache, no journal, and no progress output.
type Options struct {
	// CacheDir, when non-empty, enables the content-addressed result
	// cache rooted there. Cells whose key is present are served from disk
	// without simulating.
	CacheDir string
	// JournalPath, when non-empty, is an append-only log of simulated
	// cells (one JSON line each; the manifest lists the cache hits). It is
	// a record, not the resume mechanism: a restarted sweep skips exactly
	// the cells CacheDir serves, so without a cache it re-executes
	// everything.
	JournalPath string
	// ManifestPath, when non-empty, is where the run's manifest.json is
	// written (atomically) on completion.
	ManifestPath string
	// Workers bounds the number of cells executing concurrently
	// (default: GOMAXPROCS). Each cell additionally parallelizes its own
	// trials, so 1–2 workers already saturate small machines; more mainly
	// helps when cells are tiny or trial counts are low.
	Workers int
	// Force re-executes every cell, ignoring the cache (results are still
	// written back to it and journaled).
	Force bool
	// Progress, when non-nil, receives human-readable status lines: one
	// per completed cell and a periodic summary with throughput, ETA and
	// cache hit-rate. It is called from several goroutines, possibly at
	// once.
	Progress func(string)
	// ProgressEvery sets the periodic summary interval (default 5 s).
	ProgressEvery time.Duration
}

// CellOutcome is one cell's result and provenance.
type CellOutcome struct {
	Cell   Cell
	Result *core.Result
	// Cached reports that the result came from the cache rather than a
	// fresh simulation.
	Cached bool
	// Wall is the time spent obtaining the result in this run.
	Wall time.Duration
}

// Outcome is a completed sweep: every cell's result in plan order, plus
// run-level accounting.
type Outcome struct {
	Spec  Spec
	Cells []CellOutcome
	// Executed counts cells that were freshly simulated; CacheHits counts
	// cells served from the cache.
	Executed  int
	CacheHits int
	Wall      time.Duration
}

// Run expands the spec and executes its plan: cached cells are served from
// disk and the rest are simulated on a bounded worker pool; every
// simulated cell is journaled. Cancelling ctx stops the sweep promptly —
// in-flight cells abort between trials — and every cell finished by then
// is already in the cache, so the next Run with the same CacheDir resumes
// where this one stopped.
func Run(ctx context.Context, spec Spec, opts Options) (*Outcome, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}

	var cache *Cache
	if opts.CacheDir != "" {
		if cache, err = OpenCache(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	var journal *Journal
	if opts.JournalPath != "" {
		if journal, err = OpenJournal(opts.JournalPath); err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		// Sharded cells keep Config.Shards goroutines busy per trial (and
		// core.Run further parallelizes trials); shrink the cell pool so
		// the default does not oversubscribe the machine.
		maxShards := 1
		for i := range cells {
			if s := cells[i].Config.Shards; s > maxShards {
				maxShards = s
			}
		}
		if maxShards > 1 {
			if workers = workers / maxShards; workers < 1 {
				workers = 1
			}
		}
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	out := &Outcome{Spec: spec, Cells: make([]CellOutcome, len(cells))}
	start := time.Now()

	// Live observability: a counter the workers bump and a reporter
	// goroutine that turns it into cells/sec, ETA and hit-rate lines.
	var completed, hits atomic.Int64
	stopReport := make(chan struct{})
	var reportWG sync.WaitGroup
	if opts.Progress != nil {
		interval := opts.ProgressEvery
		if interval <= 0 {
			interval = 5 * time.Second
		}
		reportWG.Add(1)
		go func() {
			defer reportWG.Done()
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-stopReport:
					return
				case <-tick.C:
					opts.Progress(progressLine(int(completed.Load()), len(cells), int(hits.Load()), time.Since(start)))
				}
			}
		}()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain; reported once below
				}
				co, err := runCell(ctx, &cells[i], cache, journal, opts.Force)
				if err != nil {
					if ctx.Err() != nil {
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("sweep: cell %s: %w", cells[i].ID(), err)
					}
					mu.Unlock()
					continue
				}
				out.Cells[i] = co
				completed.Add(1)
				if co.Cached {
					hits.Add(1)
				}
				if opts.Progress != nil {
					src := "ran"
					if co.Cached {
						src = "cache"
					}
					opts.Progress(fmt.Sprintf("%-18s %-5s %8.0fms  no-route %.1f  ttl %.1f  fwd-conv %.1fs",
						co.Cell.ID(), src, float64(co.Wall.Milliseconds()),
						co.Result.MeanNoRouteDrops, co.Result.MeanTTLDrops, co.Result.MeanFwdConv))
				}
			}
		}()
	}
dispatch:
	for i := range cells {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	close(stopReport)
	reportWG.Wait()

	out.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range out.Cells {
		if out.Cells[i].Cached {
			out.CacheHits++
		} else {
			out.Executed++
		}
	}
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("sweep done: %d cells in %v (%d simulated, %d from cache)",
			len(cells), out.Wall.Round(time.Millisecond), out.Executed, out.CacheHits))
	}
	if opts.ManifestPath != "" {
		if err := buildManifest(spec, out).Write(opts.ManifestPath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCell obtains one cell's result: cache lookup, then a fresh
// simulation, written back to the cache and journaled.
func runCell(ctx context.Context, cell *Cell, cache *Cache, journal *Journal, force bool) (CellOutcome, error) {
	start := time.Now()
	if !force && cache != nil {
		// A cell whose cache entry is missing or corrupt re-executes.
		if res, ok := cache.Get(cell.Key, cell.Config); ok {
			return CellOutcome{Cell: *cell, Result: res, Cached: true, Wall: time.Since(start)}, nil
		}
	}
	res, err := core.RunContext(ctx, cell.Config)
	if err != nil {
		return CellOutcome{}, err
	}
	wall := time.Since(start)
	if cache != nil {
		if err := cache.Put(cell.Key, res); err != nil {
			return CellOutcome{}, err
		}
	}
	if journal != nil {
		if err := journal.Record(JournalEntry{Key: cell.Key, ID: cell.ID(), WallMS: wall.Milliseconds()}); err != nil {
			return CellOutcome{}, err
		}
	}
	return CellOutcome{Cell: *cell, Result: res, Wall: wall}, nil
}

// progressLine renders the periodic status summary.
func progressLine(done, total, hits int, elapsed time.Duration) string {
	rate := float64(done) / elapsed.Seconds()
	eta := "-"
	if done > 0 && done < total {
		remaining := time.Duration(float64(total-done) / rate * float64(time.Second))
		eta = remaining.Round(time.Second).String()
	}
	hitRate := 0.0
	if done > 0 {
		hitRate = 100 * float64(hits) / float64(done)
	}
	return fmt.Sprintf("sweep: %d/%d cells (%.0f%%)  %.2f cells/s  ETA %s  cache hit %.0f%%",
		done, total, 100*float64(done)/float64(total), rate, eta, hitRate)
}

// SweepResult assembles the outcome's single-failure cells into the figure
// renderer's shape (core.SweepResult), so figure generation runs on top of
// the orchestrator. Cells of failure modes other than the first are
// ignored — the paper's figures describe one failure model at a time —
// and so are topo-spec cells, which have no degree axis to plot along.
func (o *Outcome) SweepResult() *core.SweepResult {
	var protocols []core.ProtocolKind
	var degrees []int
	seenProto := map[core.ProtocolKind]bool{}
	seenDeg := map[int]bool{}
	failure := ""
	cells := make(map[core.ProtocolKind]map[int]*core.Result)
	for i := range o.Cells {
		c := &o.Cells[i]
		if c.Result == nil || c.Cell.Topo != "" {
			continue
		}
		if failure == "" {
			failure = c.Cell.Failure.Name
		}
		if c.Cell.Failure.Name != failure {
			continue
		}
		if !seenProto[c.Cell.Protocol] {
			seenProto[c.Cell.Protocol] = true
			protocols = append(protocols, c.Cell.Protocol)
		}
		if !seenDeg[c.Cell.Degree] {
			seenDeg[c.Cell.Degree] = true
			degrees = append(degrees, c.Cell.Degree)
		}
		if cells[c.Cell.Protocol] == nil {
			cells[c.Cell.Protocol] = make(map[int]*core.Result)
		}
		cells[c.Cell.Protocol][c.Cell.Degree] = c.Result
	}
	return &core.SweepResult{
		Base:      o.Spec.base(),
		Degrees:   degrees,
		Protocols: protocols,
		Cells:     cells,
	}
}
