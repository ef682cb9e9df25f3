package core

import (
	"math"
	"testing"
	"time"

	"routeconv/internal/stats"
	"routeconv/internal/trace"
)

// sample, binCounts and binMeans are the per-second binning a trial's
// Throughput and Delay were computed with before the recorder folded
// deliveries at arrival: sample arrays built from the delivery list, then
// binned. They are the fold's oracle.
type sample struct {
	at    time.Duration
	value float64
}

func binOf(at, origin, width time.Duration, nBins int) int {
	if at < origin || width <= 0 {
		return -1
	}
	if i := int((at - origin) / width); i < nBins {
		return i
	}
	return -1
}

func binCounts(samples []sample, origin, width time.Duration, nBins int) []float64 {
	out := make([]float64, nBins)
	for _, s := range samples {
		if i := binOf(s.at, origin, width, nBins); i >= 0 {
			out[i]++
		}
	}
	return out
}

func binMeans(samples []sample, origin, width time.Duration, nBins int) []float64 {
	sums := make([]float64, nBins)
	counts := make([]int, nBins)
	for _, s := range samples {
		if i := binOf(s.at, origin, width, nBins); i >= 0 {
			sums[i] += s.value
			counts[i]++
		}
	}
	out := make([]float64, nBins)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

// oracleResult recomputes the delivery-derived fields of a trial from the
// full-record delivery list, the way runTrial computed them when it kept
// one, counting post-failure deliveries from anchor.
func oracleResult(cfg *Config, col *trace.Collector, anchor time.Duration) TrialResult {
	nBins := int((cfg.End - cfg.SenderStart) / time.Second)
	throughput := make([]sample, len(col.Deliveries))
	delay := make([]sample, len(col.Deliveries))
	var post []float64
	for i, d := range col.Deliveries {
		throughput[i] = sample{at: d.At}
		delay[i] = sample{at: d.At, value: d.Delay.Seconds()}
		if d.At >= anchor {
			post = append(post, d.Delay.Seconds())
		}
	}
	summary := stats.Summarize(post)
	return TrialResult{
		LoopEscapes: col.LoopEscapes(anchor),
		Throughput:  binCounts(throughput, cfg.SenderStart, time.Second, nBins),
		Delay:       binMeans(delay, cfg.SenderStart, time.Second, nBins),
		DelayP50:    summary.Median,
		DelayP95:    stats.Percentile(post, 95),
		DelayMax:    summary.Max,
	}
}

// sameBits reports whether two series are equal bit for bit (NaN bins
// included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestArrivalsMatchDeliveryList: a trial's Throughput, Delay, DelayP50/P95/
// Max and LoopEscapes, which the recorder folds at arrival, equal bit for
// bit what the full-record delivery list gives the old way — on the six
// golden configurations, a 40-flow RIP trial, and two cases built to
// catch an off-by-one: on "grid" a hop takes exactly one 50 ms send
// interval, so every twentieth delivery lands on a bin edge, and on
// "escapes" packets escape BGP3's transient loops between SenderStart and
// the anchor — the cost-out and cost-in cycles before the path failure
// fail nothing — which the count must leave out. A compact recorder's results
// are the same, with no per-packet list kept.
func TestArrivalsMatchDeliveryList(t *testing.T) {
	configFor := func(k ProtocolKind) func() Config {
		return func() Config { return goldenConfig(k) }
	}
	cases := []struct {
		name   string
		config func() Config
	}{
		{"rip", configFor(ProtoRIP)},
		{"dbf", configFor(ProtoDBF)},
		{"bgp", configFor(ProtoBGP)},
		{"bgp3", configFor(ProtoBGP3)},
		{"ls", configFor(ProtoLS)},
		{"bgp3-damping", goldenDampingConfig},
		{"rip-40flows", func() Config {
			cfg := goldenConfig(ProtoRIP)
			cfg.Flows = 40
			return cfg
		}},
		{"grid", func() Config {
			cfg := goldenConfig(ProtoDBF)
			cfg.Net.LinkDelay = 50*time.Millisecond - 800*time.Microsecond // plus a 1000-byte packet's serialization
			return cfg
		}},
		{"escapes", func() Config {
			cfg := goldenDampingConfig() // its failpath fails link 23-30
			cfg.Scenario = "costout link 23-30 @400s; costin link 23-30 @403s; " +
				"costout link 23-30 @406s; costin link 23-30 @409s; failpath @410s"
			cfg.End = 470 * time.Second
			cfg.Net.RecordHops = true
			return cfg
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.config()
			tr, col, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			script, err := cfg.resolve()
			if err != nil {
				t.Fatal(err)
			}
			anchor := script.Anchor(cfg.SenderStart)
			want := oracleResult(&cfg, col, anchor)
			check := func(mode string, got TrialResult) {
				t.Helper()
				if got.LoopEscapes != want.LoopEscapes {
					t.Errorf("%s: LoopEscapes = %d, the delivery list gives %d", mode, got.LoopEscapes, want.LoopEscapes)
				}
				if !sameBits(got.Throughput, want.Throughput) {
					t.Errorf("%s: Throughput = %v, the delivery list gives %v", mode, got.Throughput, want.Throughput)
				}
				if !sameBits(got.Delay, want.Delay) {
					t.Errorf("%s: Delay = %v, the delivery list gives %v", mode, got.Delay, want.Delay)
				}
				if g, w := []float64{got.DelayP50, got.DelayP95, got.DelayMax}, []float64{want.DelayP50, want.DelayP95, want.DelayMax}; !sameBits(g, w) {
					t.Errorf("%s: DelayP50/P95/Max = %v, the delivery list gives %v", mode, g, w)
				}
			}
			check("full", tr)
			compact, ccol, err := runTrial(&cfg, script, 0, nil, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			check("compact", compact)
			if n := len(ccol.Deliveries); n != 0 {
				t.Errorf("compact recorder listed %d deliveries, want none", n)
			}
			edges, early := 0, 0
			for _, d := range col.Deliveries {
				if (d.At-cfg.SenderStart)%time.Second == 0 {
					edges++
				}
				if d.Looped && d.At >= cfg.SenderStart && d.At < anchor {
					early++
				}
			}
			if tc.name == "grid" && edges == 0 {
				t.Error("no delivery on a bin edge: the case no longer exercises the binning")
			}
			if tc.name == "escapes" && early == 0 {
				t.Error("no loop escape before the anchor: the case no longer exercises the count")
			}
		})
	}
}
