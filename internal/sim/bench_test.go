package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkEngineScheduleStep measures the steady-state cost of one
// schedule + dispatch cycle: the queue stays at depth 1, so this is the
// floor below which no simulation can go.
func BenchmarkEngineScheduleStep(b *testing.B) {
	s := New(1)
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
}

// BenchmarkEngineDepth measures schedule + dispatch with the queue held at
// a realistic depth, exercising the heap's sift paths.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{16, 256, 4096} {
		b.Run(depthName(depth), func(b *testing.B) {
			s := New(1)
			fn := func() {}
			for i := 0; i < depth; i++ {
				s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Second))), fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Second))), fn)
				s.Step()
			}
		})
	}
}

// holdChain is BenchmarkEngineHold's event: each firing schedules its one
// successor a millisecond ahead, through the heap or, when lane is set,
// through ScheduleFixed.
type holdChain struct {
	s    *Simulator
	lane bool
}

func (c *holdChain) HandleEvent(int32, any) {
	if c.lane {
		c.s.ScheduleFixed(time.Millisecond, c, 0, nil)
	} else {
		c.s.ScheduleHandler(time.Millisecond, c, 0, nil)
	}
}

// BenchmarkEngineHold measures the pattern trials actually have, which
// BenchmarkEngineDepth's uniform draws never produce: N far-future protocol
// timers resident at the heap's leaves while one chain of events fires,
// each scheduling a near-term successor on the heap from inside its
// handler (a timer re-arming, a control packet's serialization after the
// previous one).
func BenchmarkEngineHold(b *testing.B) {
	for _, resident := range []int{64, 256} {
		b.Run(fmt.Sprintf("resident%d", resident), func(b *testing.B) {
			s := New(1)
			for i := 0; i < resident; i++ {
				s.Schedule(1000*time.Hour+time.Duration(i)*time.Second, func() {})
			}
			s.ScheduleHandler(0, &holdChain{s: s}, 0, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkEngineLane is BenchmarkEngineHold's pattern with 256 resident
// timers, the chain once through the heap and once through a lane: what a
// packet hop's fixed-delay event costs either way.
func BenchmarkEngineLane(b *testing.B) {
	for _, lane := range []bool{false, true} {
		name := "heap"
		if lane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			s := New(1)
			for i := 0; i < 256; i++ {
				s.Schedule(1000*time.Hour+time.Duration(i)*time.Second, func() {})
			}
			s.ScheduleHandler(0, &holdChain{s: s, lane: lane}, 0, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func depthName(d int) string {
	switch d {
	case 16:
		return "depth16"
	case 256:
		return "depth256"
	default:
		return "depth4096"
	}
}

// BenchmarkEngineTimerChurn measures the RIP/BGP timer pattern: arm,
// re-arm (cancelling the pending firing), and eventually fire.
func BenchmarkEngineTimerChurn(b *testing.B) {
	s := New(1)
	t := NewTimer(s, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Reset(time.Millisecond)
		t.Reset(2 * time.Millisecond)
		s.Step()
	}
}

// BenchmarkEngineCancel measures eager cancellation with a populated queue.
func BenchmarkEngineCancel(b *testing.B) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Hour))), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.Schedule(time.Duration(s.Rand().Int63n(int64(time.Hour))), fn)
		e.Cancel()
	}
}
