package sim

import (
	"math"
	"testing"
	"time"
)

// TestStreamDeterministic pins that (seed, id) fully determines the
// sequence, and that distinct ids and seeds give distinct sequences.
func TestStreamDeterministic(t *testing.T) {
	a := NewStream(7, 3)
	b := NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d differs for identical (seed, id)", i)
		}
	}
	c, d := NewStream(7, 4), NewStream(8, 3)
	base := NewStream(7, 3)
	sameID, sameSeed := 0, 0
	for i := 0; i < 64; i++ {
		v := base.Uint64()
		if v == c.Uint64() {
			sameID++
		}
		if v == d.Uint64() {
			sameSeed++
		}
	}
	if sameID > 1 || sameSeed > 1 {
		t.Errorf("streams correlate: %d/64 collisions across ids, %d/64 across seeds", sameID, sameSeed)
	}
}

// TestStreamIndependence: drawing from one stream must not perturb
// another — the property sharding depends on.
func TestStreamIndependence(t *testing.T) {
	a := NewStream(1, 10)
	b := NewStream(1, 11)
	var want []uint64
	ref := NewStream(1, 10)
	for i := 0; i < 10; i++ {
		want = append(want, ref.Uint64())
	}
	for i := 0; i < 10; i++ {
		b.Uint64() // interleaved draws on another stream
		if got := a.Uint64(); got != want[i] {
			t.Fatalf("draw %d: got %d, want %d — streams are coupled", i, got, want[i])
		}
	}
}

// TestStreamJitterBounds: Jitter stays within [lo, hi] and degenerates to
// lo when the interval is empty or inverted.
func TestStreamJitterBounds(t *testing.T) {
	st := NewStream(3, 0)
	lo, hi := 10*time.Millisecond, 30*time.Millisecond
	seenLow, seenHigh := false, false
	for i := 0; i < 2000; i++ {
		j := st.Jitter(lo, hi)
		if j < lo || j > hi {
			t.Fatalf("Jitter = %v outside [%v, %v]", j, lo, hi)
		}
		if j < lo+5*time.Millisecond {
			seenLow = true
		}
		if j > hi-5*time.Millisecond {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Error("2000 draws never touched the interval's ends — not uniform")
	}
	if st.Jitter(hi, lo) != hi {
		t.Error("inverted interval should return lo")
	}
	if st.Jitter(lo, lo) != lo {
		t.Error("empty interval should return lo")
	}
}

// TestStreamFloat64Range: Float64 stays in [0, 1).
func TestStreamFloat64Range(t *testing.T) {
	st := NewStream(5, 1)
	for i := 0; i < 1000; i++ {
		f := st.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

// TestStreamInt63nPanics: non-positive n is a programming error.
func TestStreamInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	st := NewStream(1, 1)
	st.Int63n(0)
}

// TestStreamExp: the draw is -ln(1-u)·mean of the stream's next Float64,
// its sample mean is the mean, and it never returns less than 1 ns.
func TestStreamExp(t *testing.T) {
	a, b := NewStream(3, 7), NewStream(3, 7)
	if got, want := a.Exp(time.Second), time.Duration(-math.Log(1-b.Float64())*float64(time.Second)); got != want {
		t.Errorf("Exp = %v, want %v", got, want)
	}
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += a.Exp(time.Millisecond)
	}
	if mean := sum / n; mean < 970*time.Microsecond || mean > 1030*time.Microsecond {
		t.Errorf("sample mean = %v, want ≈ 1ms", mean)
	}
	for i := 0; i < 100; i++ {
		if d := a.Exp(0); d != 1 {
			t.Fatalf("Exp(0) = %v, want the 1 ns floor", d)
		}
	}
}

// TestCoordinatorWindows drives three simulators through exclusive
// windows and checks the barrier semantics: events strictly before the
// bound fire, events at the bound wait, and the final inclusive window
// matches sequential RunUntil.
func TestCoordinatorWindows(t *testing.T) {
	sims := []*Simulator{New(1), New(2), New(3)}
	fired := make([][]time.Duration, 3)
	for i, s := range sims {
		i := i
		for _, at := range []time.Duration{1 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond} {
			at := at
			s.ScheduleAt(at, func() { fired[i] = append(fired[i], at) })
		}
	}
	c := NewCoordinator(sims)
	defer c.Stop()

	if min, ok := c.MinNextEvent(); !ok || min != time.Millisecond {
		t.Fatalf("MinNextEvent = %v, %v; want 1ms, true", min, ok)
	}
	c.RunWindow(5 * time.Millisecond)
	for i := range fired {
		if len(fired[i]) != 1 || fired[i][0] != time.Millisecond {
			t.Fatalf("sim %d after exclusive window to 5ms: fired %v, want [1ms]", i, fired[i])
		}
		if now := sims[i].Now(); now != 5*time.Millisecond {
			t.Errorf("sim %d clock = %v, want 5ms (parked at the bound)", i, now)
		}
	}
	if min, ok := c.MinNextEvent(); !ok || min != 5*time.Millisecond {
		t.Fatalf("MinNextEvent = %v, %v; want 5ms, true", min, ok)
	}
	c.RunWindowUntil(10 * time.Millisecond)
	for i := range fired {
		if len(fired[i]) != 3 {
			t.Errorf("sim %d after inclusive window to 10ms: fired %v, want all three", i, fired[i])
		}
	}
	if _, ok := c.MinNextEvent(); ok {
		t.Error("MinNextEvent reports pending events after everything fired")
	}
	for i, s := range sims {
		if s.Fired() != 3 {
			t.Errorf("sim %d Fired = %d, want 3", i, s.Fired())
		}
	}
}

// TestCoordinatorStopIdlesWorkers: Stop returns with all workers joined,
// and the simulators remain usable sequentially afterwards.
func TestCoordinatorStopIdlesWorkers(t *testing.T) {
	sims := []*Simulator{New(1), New(2)}
	n := 0
	sims[0].ScheduleAt(time.Second, func() { n++ })
	c := NewCoordinator(sims)
	c.RunWindow(500 * time.Millisecond)
	c.Stop()
	sims[0].RunUntil(2 * time.Second)
	if n != 1 {
		t.Errorf("event did not fire after Stop: n = %d", n)
	}
}
