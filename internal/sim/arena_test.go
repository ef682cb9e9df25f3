package sim

import (
	"testing"
	"time"
)

// Cancel must remove the event from the queue immediately, not lazily at
// pop time: heavy timer churn (BGP MRAI, damping reuse timers) would
// otherwise grow the queue with dead entries.
func TestCancelRemovesEagerly(t *testing.T) {
	s := New(1)
	events := make([]Event, 100)
	for i := range events {
		events[i] = s.Schedule(time.Second, func() {})
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending() = %d, want 100", s.Pending())
	}
	for i, e := range events {
		e.Cancel()
		if got, want := s.Pending(), 100-i-1; got != want {
			t.Fatalf("Pending() = %d after %d cancels, want %d (removal must be eager)", got, i+1, want)
		}
	}
}

// Cancelled slots must return to the free list so a cancel/schedule cycle
// never grows the arena.
func TestCancelRecyclesSlots(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		e := s.Schedule(time.Second, func() {})
		e.Cancel()
	}
	if len(s.slots) != 1 {
		t.Errorf("arena holds %d slots after 1000 cancel cycles, want 1 (slots must be recycled)", len(s.slots))
	}
	if len(s.heap) != 0 {
		t.Errorf("heap holds %d entries after cancelling everything", len(s.heap))
	}
}

// Cancelling everything from inside a handler — while the firing event's
// root entry is only marked vacated — must leave an empty heap and every
// slot free once the step returns, whether or not the handler also
// scheduled into the vacated root first.
func TestCancelEverythingWithDeferredRoot(t *testing.T) {
	for _, scheduleFirst := range []bool{false, true} {
		s := New(1)
		events := make([]Event, 50)
		s.Schedule(0, func() {
			if scheduleFirst {
				events = append(events, s.Schedule(time.Millisecond, func() { t.Error("cancelled successor fired") }))
			}
			if got, want := s.Pending(), len(events); got != want {
				t.Errorf("Pending() = %d inside the handler, want %d (the firing event is not pending)", got, want)
			}
			for i, e := range events {
				e.Cancel()
				if got, want := s.Pending(), len(events)-i-1; got != want {
					t.Fatalf("Pending() = %d after %d cancels inside the handler, want %d", got, i+1, want)
				}
			}
		})
		for i := range events {
			events[i] = s.Schedule(time.Duration(i%7+1)*time.Second, func() { t.Error("cancelled event fired") })
		}
		if !s.Step() {
			t.Fatal("nothing fired")
		}
		if len(s.heap) != 0 || s.vacant {
			t.Errorf("scheduleFirst=%v: heap holds %d entries (vacant=%v) after cancelling everything", scheduleFirst, len(s.heap), s.vacant)
		}
		if len(s.free) != len(s.slots) {
			t.Errorf("scheduleFirst=%v: %d of %d slots free", scheduleFirst, len(s.free), len(s.slots))
		}
		if s.Step() {
			t.Errorf("scheduleFirst=%v: an event fired from an empty queue", scheduleFirst)
		}
	}
}

// A handle whose slot has been recycled by a later event must be inert:
// its Cancel must not touch the new tenant.
func TestStaleHandleIsInert(t *testing.T) {
	s := New(1)
	stale := s.Schedule(time.Second, func() {})
	stale.Cancel()
	fired := false
	fresh := s.Schedule(2*time.Second, func() { fired = true })
	if fresh.Pending() != true {
		t.Fatal("fresh event not pending")
	}
	stale.Cancel() // must not cancel the slot's new tenant
	if stale.Cancelled() {
		t.Error("stale handle reports Cancelled after its slot was recycled")
	}
	if !fresh.Pending() {
		t.Fatal("stale Cancel removed the recycled slot's new event")
	}
	s.Run()
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// Cancelling events out of order exercises heapRemove's interior-deletion
// path (the last leaf takes the hole and sifts whichever way it must); the
// survivors must still fire in time order.
func TestCancelInteriorKeepsOrder(t *testing.T) {
	s := New(1)
	const n = 64
	events := make([]Event, n)
	for i := range events {
		i := i
		events[i] = s.Schedule(time.Duration(n-i)*time.Millisecond, func() {})
		_ = i
	}
	// Cancel every third event, from the middle outwards.
	for i := n / 2; i < n; i += 3 {
		events[i].Cancel()
	}
	for i := n/2 - 1; i >= 0; i -= 3 {
		events[i].Cancel()
	}
	var last time.Duration
	for s.Step() {
		if s.Now() < last {
			t.Fatalf("event fired at %v after one at %v", s.Now(), last)
		}
		last = s.Now()
	}
}

// The scheduling hot path must be allocation-free in steady state: slots
// come from the free list and the heap reuses its backing array.
func TestScheduleStepZeroAlloc(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm up the arena and heap capacity.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Millisecond, fn)
		s.Step()
	}); avg != 0 {
		t.Errorf("Schedule+Step allocates %.1f objects per op, want 0", avg)
	}
}

type nopHandler struct{}

func (nopHandler) HandleEvent(int32, any) {}

// Typed-event dispatch must also be allocation-free, including the data
// payload when it carries a pointer.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	s := New(1)
	h := nopHandler{}
	payload := &struct{ x int }{}
	s.ScheduleHandler(0, h, 0, payload)
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		s.ScheduleHandler(time.Millisecond, h, 1, payload)
		s.Step()
	}); avg != 0 {
		t.Errorf("ScheduleHandler+Step allocates %.1f objects per op, want 0", avg)
	}
}

// Timer churn — the dominant control-plane pattern (MRAI, housekeeping,
// damping reuse) — must not allocate once the timer exists.
func TestTimerChurnZeroAlloc(t *testing.T) {
	s := New(1)
	timer := NewTimer(s, func() {})
	timer.Reset(time.Millisecond)
	s.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		timer.Reset(time.Millisecond)
		timer.Reset(2 * time.Millisecond) // cancel + rearm
		s.Run()
	}); avg != 0 {
		t.Errorf("Timer Reset/Reset/fire allocates %.1f objects per op, want 0", avg)
	}
}
