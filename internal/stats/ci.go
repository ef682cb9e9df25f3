package stats

import "math"

// tCritical95 holds two-sided 95% Student-t critical values for 1–30
// degrees of freedom; beyond that the normal approximation (1.96) is used.
var tCritical95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval for
// the mean of xs (Student's t). It returns 0 for samples of fewer than two
// values.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := Summarize(xs)
	df := n - 1
	t := 1.96
	if df <= len(tCritical95) {
		t = tCritical95[df-1]
	}
	return t * s.Std / math.Sqrt(float64(n))
}
