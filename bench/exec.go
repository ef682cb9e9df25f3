package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/obs"
	"routeconv/internal/sweep"
	"routeconv/internal/trace"
)

// scratchRoot is where everything the benchmark writes lives: inside the
// checkout it is started from, next to the built binary. Tests point it at
// their own temporary directory.
var scratchRoot = ".bench_build/tmp"

// env is the file-system side of one workload run: a private directory
// holding the populated cache of the warm sweep and the fresh directories
// of the cold ones.
type env struct {
	dir string
}

func newEnv() (*env, error) {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &env{dir: dir}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

func sweepOptions(dir string) sweep.Options {
	return sweep.Options{
		CacheDir:     filepath.Join(dir, "cache"),
		JournalPath:  filepath.Join(dir, "journal.jsonl"),
		ManifestPath: filepath.Join(dir, "manifest.json"),
	}
}

// outcome is what one executed unit returns: its wall time and result
// hash for the end-to-end numbers, and the program's own outputs for the
// correctness checks and the layer pass.
type outcome struct {
	wall   time.Duration
	hash   string
	err    error
	trials []core.TrialResult // every trial of the unit, in plan order
	cached int                // how many of them a sweep read from its cache
	warmed bool               // every trial reported a converged warm-up
	// kindTrace only.
	collector *trace.Collector
	timeline  *obs.Timeline
	ndjson    time.Duration
	ndjsonLen int64
	// kindSweep only; dir is the sweep's directory, and fresh marks the
	// directory of a cold unit, which the caller reads and then discards.
	sweep *sweep.Outcome
	dir   string
	fresh bool
}

// countWriter discards what it is given and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// exec runs one unit and times exactly the entry-point call. A panic on
// the calling goroutine is turned into the unit's error; one on a worker
// goroutine of the program takes the process down, which the suite driver
// survives because every workload is its own child process.
func (e *env) exec(u unit) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("unit %s: panic: %v", u.label, r)
		}
	}()
	switch u.kind {
	case kindRun:
		start := time.Now()
		res, err := core.Run(u.cfg)
		out.wall = time.Since(start)
		if err != nil {
			out.err = fmt.Errorf("unit %s: %w", u.label, err)
			return out
		}
		out.trials = res.Trials
		out.warmed = res.WarmedUpTrials == len(res.Trials)
	case kindTrace:
		tl := obs.NewTimeline()
		var cw countWriter
		start := time.Now()
		tr, col, err := core.TraceObserved(u.cfg, 0, tl)
		mid := time.Now()
		if err == nil {
			err = tl.WriteNDJSON(&cw)
		}
		end := time.Now()
		out.wall, out.ndjson, out.ndjsonLen = end.Sub(start), end.Sub(mid), cw.n
		if err != nil {
			out.err = fmt.Errorf("unit %s: %w", u.label, err)
			return out
		}
		out.trials = []core.TrialResult{tr}
		out.warmed = tr.WarmedUp
		out.collector, out.timeline = col, tl
	case kindSweep:
		out.dir = filepath.Join(e.dir, "warm")
		if u.cold {
			dir, err := os.MkdirTemp(e.dir, "cold-")
			if err != nil {
				out.err = err
				return out
			}
			out.dir, out.fresh = dir, true
		}
		opts := sweepOptions(out.dir)
		start := time.Now()
		sw, err := sweep.Run(context.Background(), u.spec, opts)
		out.wall = time.Since(start)
		if err != nil {
			out.err = fmt.Errorf("unit %s: %w", u.label, err)
			return out
		}
		out.sweep = sw
		out.warmed = true
		for i := range sw.Cells {
			out.trials = append(out.trials, sw.Cells[i].Result.Trials...)
			if sw.Cells[i].Cached {
				out.cached += len(sw.Cells[i].Result.Trials)
			}
			out.warmed = out.warmed && sw.Cells[i].Result.WarmedUpTrials == len(sw.Cells[i].Result.Trials)
		}
	}
	out.hash = hashTrials(out.trials)
	return out
}

// discard removes what a cold sweep unit left on disk.
func (o *outcome) discard() {
	if o.fresh {
		os.RemoveAll(o.dir)
	}
}

// hashTrials is the result hash: SHA-256 over every trial's integer and
// duration fields and the IEEE bits of its series. It is not a hash of the
// JSON form because Delay legitimately holds NaN, and it leaves out the obs
// snapshot so that a traced and an untraced run of one unit agree.
func hashTrials(trials []core.TrialResult) string {
	h := sha256.New()
	for i := range trials {
		writeTrial(h, &trials[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeTrial(h hash.Hash, t *core.TrialResult) {
	warmed := int64(0)
	if t.WarmedUp {
		warmed = 1
	}
	ints := []int64{
		t.Seed, int64(t.SenderRouter), int64(t.ReceiverRouter),
		int64(t.FailedLink.A), int64(t.FailedLink.B), warmed,
		int64(t.Sent), int64(t.Delivered),
		int64(t.NoRouteDrops), int64(t.TTLDrops), int64(t.LinkFailureDrops),
		int64(t.QueueDrops), int64(t.RandomLossDrops),
		int64(t.RoutingConvergence), int64(t.ForwardingConvergence),
		int64(t.TransientPaths), int64(t.LoopEscapes),
		int64(t.ControlMessages), int64(t.ControlBytes),
		int64(len(t.Throughput)), int64(len(t.Delay)),
	}
	floats := append(append([]float64{t.DelayP50, t.DelayP95, t.DelayMax}, t.Throughput...), t.Delay...)
	buf := make([]byte, 0, 8*(len(ints)+len(floats)))
	for _, v := range ints {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, f := range floats {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	h.Write(buf)
}

// hashStrings folds an ordered list of unit hashes into the workload's
// result hash.
func hashStrings(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
