package sim

import (
	"slices"
	"testing"
	"time"
)

// A simulator opens lanes for its first maxLanes delays only; a further
// delay goes through the heap and still fires in order.
func TestLaneBoundFallsBackToHeap(t *testing.T) {
	s := New(1)
	var got []int32
	h := handlerFunc(func(kind int32, _ any) { got = append(got, kind) })
	for i := maxLanes; i >= 0; i-- {
		s.ScheduleFixed(time.Duration(i+1)*time.Millisecond, h, int32(i), nil)
	}
	if s.nlanes != maxLanes || len(s.heap) != 1 {
		t.Fatalf("%d lanes and %d heap events, want %d and 1", s.nlanes, len(s.heap), maxLanes)
	}
	s.Run()
	for i, k := range got {
		if k != int32(i) {
			t.Fatalf("fired kinds %v, want ascending", got)
		}
	}
}

func TestScheduleFixedPanics(t *testing.T) {
	s := New(1)
	for name, fn := range map[string]func(){
		"negative delay": func() { s.ScheduleFixed(-time.Nanosecond, nopHandler{}, 0, nil) },
		"nil handler":    func() { s.ScheduleFixed(time.Millisecond, nil, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ScheduleFixed did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// A lane's ring grows only when it is full, and steady scheduling through
// a lane allocates nothing: the hop of a data packet costs no allocation.
func TestScheduleFixedZeroAlloc(t *testing.T) {
	s := New(1)
	h := nopHandler{}
	payload := &struct{ x int }{}
	const depth = 16 // the ring's first size: full, but never over
	for i := 0; i < depth; i++ {
		s.ScheduleFixed(time.Millisecond, h, 0, payload)
	}
	l := &s.lanes[0]
	if len(l.ring) != depth {
		t.Fatalf("ring of %d for %d events, want %d", len(l.ring), depth, depth)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		s.Step()
		s.ScheduleFixed(time.Millisecond, h, 1, payload)
	}); avg != 0 {
		t.Errorf("ScheduleFixed+Step allocates %.1f objects per op, want 0", avg)
	}
	if len(l.ring) != depth || l.count != depth {
		t.Fatalf("steady lane: ring %d holding %d, want %d holding %d", len(l.ring), l.count, depth, depth)
	}
	// One more event: the ring, full and wrapped, grows, and still pops in
	// scheduling order.
	s.ScheduleFixed(time.Millisecond, h, 2, payload)
	if len(l.ring) != 2*depth {
		t.Fatalf("full ring of %d grew to %d on one more event, want %d", depth, len(l.ring), 2*depth)
	}
	var kinds []int
	for l.count > 0 {
		kinds = append(kinds, int(l.ring[l.head].kind))
		s.Step()
	}
	want := make([]int, depth+1)
	for i := range want[:depth] {
		want[i] = 1
	}
	want[depth] = 2
	if !slices.Equal(kinds, want) {
		t.Fatalf("grown ring pops kinds %v, want %v", kinds, want)
	}
}

type handlerFunc func(kind int32, data any)

func (f handlerFunc) HandleEvent(kind int32, data any) { f(kind, data) }
