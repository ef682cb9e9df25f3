package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// the first set-up is timed from here so that runtime start-up is in it.
var processStart = time.Now()

// setupReps is how often a run sets up. setup_s is the median, so that the
// first set-up (cold heap, cold page cache, and for figsweep-warm the sweep
// that populates the cache, which figsweep-cold times) does not decide it.
const setupReps = 3

// minUnits is the fewest timed units a run reports on, however short.
const minUnits = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names and units, and bench_test.go holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"unit_p50_ms", "ms"},
	{"unit_tail_ms", "ms"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"mallocs_k", "1e3"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// record is one workload's result: what the suite document holds per
// workload and what -compare reads back.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Passes     int               `json:"passes"`
	Units      int               `json:"units"`
	TailPct    int               `json:"tail_pct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailRatio  float64           `json:"fail_ratio"`
	ResultHash string            `json:"result_hash"`
	Drift      bool              `json:"drift"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// session is one workload run inside this process: the plan built from the
// seed, the directory it writes to, and the correctness tally.
type session struct {
	w    workload
	seed int64
	sz   sizes
	env  *env
	plan plan
	// first holds the first result hash seen per unit label. Every later
	// execution of that label — a repeat of the same seed, the warm sweep
	// after the cold one, the sequential reference of a sharded trial —
	// must reproduce it.
	first     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newSession(w workload, seed int64, sz sizes) *session {
	return &session{w: w, seed: seed, sz: sz, first: map[string]string{}}
}

func (s *session) close() {
	if s.env != nil {
		s.env.close()
	}
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one executed unit and applies the checks every unit gets.
func (s *session) check(u unit, out *outcome) {
	s.attempted++
	switch {
	case out.err != nil:
		s.fail("%v", out.err)
	case u.mustWarm && !out.warmed:
		s.fail("unit %s: warm-up did not converge", u.label)
	case out.sweep != nil && (u.cold || u.populate) && out.sweep.CacheHits != 0:
		s.fail("unit %s: %d cells of an empty cache hit", u.label, out.sweep.CacheHits)
	case out.sweep != nil && !(u.cold || u.populate) && out.sweep.Executed != 0:
		s.fail("unit %s: %d cells missed the populated cache", u.label, out.sweep.Executed)
	case s.first[u.label] == "":
		s.first[u.label] = out.hash
	case s.first[u.label] != out.hash:
		s.fail("unit %s: result hash %.12s differs from the first run's %.12s", u.label, out.hash, s.first[u.label])
	}
}

// run executes one unit, checks it and removes what it left on disk.
func (s *session) run(u unit) outcome {
	out := s.env.exec(u)
	s.check(u, &out)
	out.discard()
	return out
}

// setup is everything before the first timed unit: input generation and
// the warm-up units, and the first time also the run's directory and the
// sweep that populates the warm workload's cache.
func (s *session) setup() error {
	freshHeap()
	s.plan = s.w.build(s.seed, s.sz)
	if s.env == nil {
		e, err := newEnv()
		if err != nil {
			return err
		}
		s.env = e
		for _, u := range s.plan.once {
			s.run(u)
		}
	}
	for _, u := range s.plan.warm {
		s.run(u)
	}
	return nil
}

// passStats is what one timed pass over the unit list cost.
type passStats struct {
	wall, cpu      float64 // seconds
	alloc, mallocs uint64
	rssMB          float64 // peak RSS reached during the pass
}

// usage is the process's user+system CPU seconds so far and its peak RSS in
// MB since the kernel's mark was last cleared (see freshHeap).
func usage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// freshHeap puts the process where a CLI user's fresh process starts a
// trial: garbage collected, free heap memory returned to the system, and the
// kernel's peak-RSS mark cleared so that the next peak read belongs to what
// runs next. Where the kernel offers no such reset (the write fails), peak
// RSS stays the process's lifetime peak.
//
// It is called before every set-up and every timed pass, outside the timed
// windows, and it is not a runtime setting: pacing inside a pass is the
// default. Without the collection the garbage of the previous pass decides
// when this one's first collection falls (peak RSS of ba4k-rip then moved by
// a seventh between identical runs); without the release and the reset, one
// lifetime peak over seven sharded trials moved by a fifth, where the median
// of per-pass peaks does not.
func freshHeap() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // "5" resets the peak RSS; failure is the fallback above
}

// timedPass runs the pass list once and returns its cost and unit times.
func (s *session) timedPass() (ps passStats, unitMS []float64) {
	var m0, m1 runtime.MemStats
	freshHeap()
	runtime.ReadMemStats(&m0)
	cpu0, _ := usage()
	for _, u := range s.plan.pass {
		out := s.run(u)
		ps.wall += out.wall.Seconds()
		unitMS = append(unitMS, out.wall.Seconds()*1e3)
	}
	cpu1, rss := usage()
	runtime.ReadMemStats(&m1)
	ps.cpu, ps.rssMB = cpu1-cpu0, rss
	ps.alloc, ps.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return ps, unitMS
}

// measure is the untraced run: set up setupReps times, then repeat the pass
// list until the run's seconds are used, then run the reference units.
func measure(w workload, seed int64, seconds float64, sz sizes) (*record, error) {
	s := newSession(w, seed, sz)
	defer s.close()

	setups := make([]float64, 0, setupReps)
	from := processStart
	for i := 0; i < setupReps; i++ {
		if err := s.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(from).Seconds())
		from = time.Now()
	}

	var passes []passStats
	var unitMS []float64
	start := time.Now()
	for {
		ps, ms := s.timedPass()
		passes = append(passes, ps)
		unitMS = append(unitMS, ms...)
		// Another pass is run when at least half of it fits.
		if len(unitMS) >= minUnits && time.Since(start).Seconds()+ps.wall/2 > seconds {
			break
		}
	}
	for _, u := range s.plan.verify {
		s.run(u)
	}

	rec := s.record()
	rec.Passes, rec.Units = len(passes), len(unitMS)
	overPasses := func(f func(passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	sort.Float64s(unitMS)
	rec.TailPct = tailPercent(len(unitMS))
	values := map[string]float64{
		"wall_s":       overPasses(func(p passStats) float64 { return p.wall }),
		"unit_p50_ms":  percentile(unitMS, 50),
		"unit_tail_ms": tailValue(unitMS, rec.TailPct),
		"cpu_s":        overPasses(func(p passStats) float64 { return p.cpu }),
		"alloc_mb":     overPasses(func(p passStats) float64 { return float64(p.alloc) / (1 << 20) }),
		"mallocs_k":    overPasses(func(p passStats) float64 { return float64(p.mallocs) / 1e3 }),
		"peak_rss_mb":  overPasses(func(p passStats) float64 { return p.rssMB }),
		"setup_s":      median(setups),
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return rec, nil
}

// record starts the workload's record from the session's tally. The
// workload's result hash covers each distinct unit of the pass once, so a
// workload that repeats one unit hashes like the workload it must agree
// with: the warm sweep like the cold one, the sharded trial like the
// sequential one.
func (s *session) record() *record {
	var hashes []string
	seen := map[string]bool{}
	for _, u := range s.plan.pass {
		if !seen[u.label] {
			seen[u.label] = true
			hashes = append(hashes, s.first[u.label])
		}
	}
	rec := &record{
		Workload:   s.w.name,
		Seed:       s.seed,
		Attempted:  s.attempted,
		Failed:     s.failed,
		Failures:   s.failures,
		ResultHash: hashStrings(hashes),
		Metrics:    map[string]metric{},
	}
	if s.attempted > 0 {
		rec.FailRatio = float64(s.failed) / float64(s.attempted)
	}
	rec.Drift = s.sz.full && drifted(s.w.name, s.seed, rec.ResultHash)
	return rec
}

// tailPercent is the highest of 90, 80 and 50 that leaves at least ten of n
// samples beyond it. There is no p95: the only unit lists long enough for it
// are made of units of 5 to 30 ms, whose p95 on a shared host measures the
// host's stalls (it moved by a fifth between runs where p90 moved by a
// seventh).
func tailPercent(n int) int {
	for _, p := range []int{90, 80} {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return 50
}

// tailValue is the p-th percentile of an ascending slice smoothed over its
// neighbours: the mean of the samples between the (p−w)-th and the (p+w)-th
// percentile, w = (100−p)/2. The unit lists are clusters by protocol and a
// percentile can fall on the edge of the slowest cluster (churn49: 10 of 50
// units are bgp3, so p80 is the slowest unit that is not), where the one
// sample at it moved by a third between runs; the window takes as many
// samples from either side every time, and leaves out the slowest
// (100−p)/2 percent, which follow single stalled units. With p = 50 there
// are too few samples to speak of a tail, and it is the median.
func tailValue(sorted []float64, p int) float64 {
	if p == 50 {
		return percentile(sorted, 50)
	}
	w, n := (100-p)/2, len(sorted)
	window := sorted[n*(p-w)/100 : (n*(p+w)+99)/100]
	sum := 0.0
	for _, x := range window {
		sum += x
	}
	return sum / float64(len(window))
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
