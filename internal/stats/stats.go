// Package stats provides the small statistics toolkit the experiment
// harness uses: summary statistics, per-second time-series binning for the
// instantaneous throughput and delay figures, and table rendering.
package stats

import (
	"math"
	"slices"
	"time"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
}

// Summarize computes descriptive statistics. An empty sample yields the
// zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation. It returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return SortedPercentile(sorted, p)
}

// SortedPercentile is Percentile of a sample already sorted in ascending
// order, which it reads in place.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Bins files timestamped values into consecutive width-wide bins from an
// origin, keeping per bin the number of values and their sum, added in
// the order the values arrive. Values outside [origin, origin+n·width) are
// ignored. With width = 1 s the counts are the paper's instantaneous
// throughput (packets per second) and the means its instantaneous packet
// delay.
type Bins struct {
	origin, width time.Duration
	// Count and Sum hold each bin's number of values and their sum.
	Count, Sum []float64
}

// NewBins returns n empty bins.
func NewBins(origin, width time.Duration, n int) Bins {
	n = max(n, 0)
	return Bins{origin: origin, width: width, Count: make([]float64, n), Sum: make([]float64, n)}
}

// Add files v, observed at time at, into its bin.
func (b *Bins) Add(at time.Duration, v float64) {
	if i := binIndex(at, b.origin, b.width, len(b.Count)); i >= 0 {
		b.Count[i]++
		b.Sum[i] += v
	}
}

// Means returns each bin's mean value; empty bins are NaN so that
// averaging across trials can skip them.
func (b *Bins) Means() []float64 {
	out := make([]float64, len(b.Count))
	for i, n := range b.Count {
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = b.Sum[i] / n
		}
	}
	return out
}

func binIndex(at, origin, width time.Duration, nBins int) int {
	if at < origin || width <= 0 {
		return -1
	}
	i := int((at - origin) / width)
	if i >= nBins {
		return -1
	}
	return i
}

// AverageSeries averages several equal-length series elementwise, skipping
// NaN entries; a position that is NaN in every series stays NaN. It panics
// if the series lengths differ (a harness bug).
func AverageSeries(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	for _, s := range series {
		if len(s) != n {
			panic("stats: AverageSeries length mismatch")
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		sum, cnt := 0.0, 0
		for _, s := range series {
			if !math.IsNaN(s[i]) {
				sum += s[i]
				cnt++
			}
		}
		if cnt == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(cnt)
		}
	}
	return out
}
