package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestCI95Small(t *testing.T) {
	if CI95(nil) != 0 || CI95([]float64{5}) != 0 {
		t.Error("CI95 of degenerate samples should be 0")
	}
}

func TestCI95KnownValue(t *testing.T) {
	// n=5, values 1..5: mean 3, s = sqrt(2.5), t(4 df) = 2.776.
	xs := []float64{1, 2, 3, 4, 5}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

// TestMeanCI95: the mean and 95% half-width the report prints, on the
// sample 2, 4, 6: mean 4, s = 2, t(2 df) = 4.303.
func TestMeanCI95(t *testing.T) {
	xs := []float64{2, 4, 6}
	if mean := Mean(xs); mean != 4 {
		t.Errorf("mean = %v, want 4", mean)
	}
	want := 4.303 * 2 / math.Sqrt(3)
	if hw := CI95(xs); math.Abs(hw-want) > 1e-9 {
		t.Errorf("half-width = %v, want %v", hw, want)
	}
}

func TestCI95LargeSampleUsesNormal(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 10)
	}
	s := Summarize(xs)
	want := 1.96 * s.Std / 10
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want normal-approx %v", got, want)
	}
}

// TestCI95Coverage: across many synthetic samples from a known
// distribution, the 95% CI should contain the true mean roughly 95% of the
// time (loosely bounded to keep the test stable).
func TestCI95Coverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 2000
	const trueMean = 10.0
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, 12)
		for j := range xs {
			xs[j] = trueMean + rng.NormFloat64()*3
		}
		mean, hw := Mean(xs), CI95(xs)
		if math.Abs(mean-trueMean) <= hw {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.98 {
		t.Errorf("CI coverage = %.3f, want ≈ 0.95", rate)
	}
}
