// Package sim provides a deterministic discrete-event simulation engine.
//
// A Simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant fire in the order they were scheduled, which makes every
// simulation a pure function of its inputs and its random seed. All
// randomness used by model code should flow from the simulator's Rand so
// that trials are reproducible.
//
// The engine is allocation-free in steady state: heap events live in a
// pooled arena whose slots are recycled through a free list as events fire
// or are cancelled. The heap is 4-ary, and its entries carry their own
// (time, sequence) key next to the slot index, so sift comparisons never
// leave the heap array, and sifts move a hole rather than swapping. Because
// (time, sequence) is a strict total order, the firing sequence is a
// property of the schedule alone, not of the heap's shape.
//
// Most events a trial schedules recur at one of a few fixed delays: every
// hop of a data packet is a serialization of fixed length, then a fixed
// propagation delay, and a CBR source ticks at a fixed interval. Those go
// through ScheduleFixed into a lane: a FIFO ring per delay, kept in
// (time, sequence) order by appending alone, because the clock never goes
// back and sequence numbers only grow. Step fires the smallest key among
// the heap root and the lane heads, which is exactly the order a single
// heap would give, so the firing sequence does not depend on which events
// took a lane. A simulator keeps at most four lanes, for the first four
// delays it sees; lane events cannot be cancelled. Everything else —
// timers, control packets of varying size, anything cancellable — goes
// through the heap.
//
// Step defers the removal of the heap event it fires: the root is only
// marked vacated while the handler runs. A heap event often schedules its
// own near-term successor (a protocol timer re-arming, a control packet's
// serialization after the previous one), and that successor drops
// straight into the vacated root and sifts down a level or two — instead
// of a far-future timer being dragged from the last leaf to the root and
// back, and the successor then sifting up past it. Only when the handler
// schedules nothing on the heap, or something reads the queue's head first
// (NextEventTime, a nested run), is the root filled the classic way from
// the last leaf. Cancel works around the hole: the fired event's stale
// entry still holds the minimum key, so the array stays a valid heap.
//
// Hot-path model code should prefer ScheduleFixed or ScheduleHandler over
// Schedule — a typed event carries its receiver and payload in the lane
// entry or the arena slot itself, where a closure would allocate.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Handler receives typed events scheduled with ScheduleHandler. It exists
// so hot-path model code can dispatch events without allocating a closure
// per event: the receiver and payload ride inside the pooled event slot.
type Handler interface {
	// HandleEvent runs the event with the kind and data values it was
	// scheduled with.
	HandleEvent(kind int32, data any)
}

// Event slot lifecycle states.
const (
	slotFree uint8 = iota
	slotPending
	slotCancelled
	slotFired
)

// eventSlot is one arena entry: an event's payload and its position in the
// heap (its key lives in the heap entry). Slots are recycled through the
// free list; gen distinguishes a slot's successive tenants so stale Event
// handles cannot affect a later event that happens to reuse their slot.
type eventSlot struct {
	fn    func()
	h     Handler
	data  any
	kind  int32
	gen   uint32
	pos   int32 // index in the heap, while pending
	state uint8
}

// heapEntry is one queued event: its (at, seq) key inline, so ordering the
// heap never dereferences the arena, and the slot holding its payload.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// before orders entries by (time, sequence): the sequence tie-break makes
// same-instant events fire in scheduling order.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Event is a handle to a scheduled callback, returned by the Schedule
// functions so callers can cancel the event before it fires. The zero value
// is an inert handle: Cancel is a no-op and Pending reports false.
type Event struct {
	s   *Simulator
	at  time.Duration
	idx int32
	gen uint32
}

// Time returns the virtual time at which the event will fire (or would
// have fired, if cancelled).
func (e Event) Time() time.Duration { return e.at }

// Cancel prevents the event from firing and releases its queue slot
// immediately, so heavy timer churn cannot grow the queue. Cancelling an
// event that already fired or was already cancelled is a no-op.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	sl := &e.s.slots[e.idx]
	if sl.gen != e.gen || sl.state != slotPending {
		return
	}
	e.s.heapRemove(int(sl.pos))
	sl.state = slotCancelled
	sl.fn, sl.h, sl.data = nil, nil, nil
	e.s.free = append(e.s.free, e.idx)
}

// Pending reports whether the event is scheduled and has neither fired nor
// been cancelled.
func (e Event) Pending() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.idx]
	return sl.gen == e.gen && sl.state == slotPending
}

// Simulator is a discrete-event scheduler with a virtual clock.
// Create one with New; the zero value is not usable.
type Simulator struct {
	now   time.Duration
	slots []eventSlot // event arena; slots are recycled via free
	free  []int32     // indices of reusable slots
	heap  []heapEntry // 4-ary min-heap keyed by (at, seq)
	// vacant marks heap[0] as a hole: the event there is the one being
	// dispatched. The next schedule fills it; settle does otherwise.
	vacant bool
	// lanes[:nlanes] hold the events scheduled through ScheduleFixed, one
	// lane per delay.
	lanes  [maxLanes]lane
	nlanes int
	seq    uint64
	rng    *rand.Rand
	seed   int64
	fired  uint64
}

// New returns a Simulator whose random source is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Seed returns the seed the simulator was created with. Model code uses it
// to derive per-entity random streams (see Stream) that stay reproducible
// regardless of how many event loops a trial is sharded across.
func (s *Simulator) Seed() int64 { return s.seed }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled, in the heap
// and the lanes. Cancelled events leave the queue immediately and are not
// counted, nor is the event being dispatched.
func (s *Simulator) Pending() int {
	n := len(s.heap)
	if s.vacant {
		n--
	}
	for i := range s.lanes[:s.nlanes] {
		n += s.lanes[i].count
	}
	return n
}

// Schedule runs fn after delay of virtual time. A negative delay is an
// error in the model; it panics to surface the bug immediately.
func (s *Simulator) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at, which must not be in the
// past.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	e, sl := s.alloc(at)
	sl.fn = fn
	return e
}

// ScheduleHandler runs h.HandleEvent(kind, data) after delay of virtual
// time. Unlike Schedule it needs no closure: in steady state it allocates
// nothing, provided data is nil or holds a pointer.
func (s *Simulator) ScheduleHandler(delay time.Duration, h Handler, kind int32, data any) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleHandlerAt(s.now+delay, h, kind, data)
}

// ScheduleHandlerAt is ScheduleHandler at an absolute virtual time, which
// must not be in the past.
func (s *Simulator) ScheduleHandlerAt(at time.Duration, h Handler, kind int32, data any) Event {
	if h == nil {
		panic("sim: nil event handler")
	}
	e, sl := s.alloc(at)
	sl.h = h
	sl.kind = kind
	sl.data = data
	return e
}

// alloc takes a slot from the free list (or grows the arena), queues it at
// time at, and returns the handle plus the slot for payload assignment.
func (s *Simulator) alloc(at time.Duration) (Event, *eventSlot) {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[idx].gen++
	} else {
		s.slots = append(s.slots, eventSlot{})
		idx = int32(len(s.slots) - 1)
	}
	e := heapEntry{at: at, seq: s.seq, idx: idx}
	s.seq++
	if s.vacant {
		// Replace-top: the first event a handler schedules takes the root
		// its own event vacated.
		s.vacant = false
		s.siftDown(0, e)
	} else {
		s.heap = append(s.heap, e)
		s.siftUp(len(s.heap)-1, e)
	}
	sl := &s.slots[idx]
	sl.state = slotPending
	return Event{s: s, at: at, idx: idx, gen: sl.gen}, sl
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (s *Simulator) Step() bool {
	s.settle() // a handler stepping the simulator it runs in
	_, l, ok := s.next()
	if ok {
		s.fire(l)
	}
	return ok
}

// fire executes the earliest pending event, which waits at the head of
// lane l or, when l is nil, at the root of the settled heap. It leaves the
// heap settled.
func (s *Simulator) fire(l *lane) {
	s.fired++
	if l != nil {
		at, h, kind, data := l.pop()
		s.now = at
		h.HandleEvent(kind, data)
		return
	}
	top := s.heap[0]
	s.vacant = true
	sl := &s.slots[top.idx]
	s.now = top.at
	fn, h, kind, data := sl.fn, sl.h, sl.kind, sl.data
	sl.fn, sl.h, sl.data = nil, nil, nil
	sl.state = slotFired
	// Free before dispatch: an event that reschedules itself (timers)
	// recycles its own slot.
	s.free = append(s.free, top.idx)
	if fn != nil {
		fn()
	} else {
		h.HandleEvent(kind, data)
	}
	s.settle() // the handler scheduled nothing on the heap
}

// settle fills a vacated root from the last leaf, restoring a heap with no
// hole. Everything that reads the queue's head settles first; after Step
// returns the heap is always settled.
func (s *Simulator) settle() {
	if !s.vacant {
		return
	}
	s.vacant = false
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		s.siftDown(0, e)
	}
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled for exactly t do fire.
func (s *Simulator) RunUntil(t time.Duration) {
	s.settle()
	for {
		at, l, ok := s.next()
		if !ok || at > t {
			break
		}
		s.fire(l)
	}
	if s.now < t {
		s.now = t
	}
}

// RunBefore executes events with time strictly < t, then advances the clock
// to t. Sharded execution uses it to run a window [now, t): events at
// exactly t belong to the next window, but new events may still be
// scheduled at t once the window ends.
func (s *Simulator) RunBefore(t time.Duration) {
	s.settle()
	for {
		at, l, ok := s.next()
		if !ok || at >= t {
			break
		}
		s.fire(l)
	}
	if s.now < t {
		s.now = t
	}
}

// NextEventTime returns the time of the earliest pending event, and whether
// one exists. The barrier coordinator uses it to size the next lockstep
// window.
func (s *Simulator) NextEventTime() (time.Duration, bool) {
	s.settle()
	at, _, ok := s.next()
	return at, ok
}

// heapRemove deletes the entry at heap position i: the last leaf takes its
// place and sifts whichever way restores the order. A vacated root needs no
// settling first — its stale entry still carries the minimum key, so the
// array is a valid heap and nothing sifts past it.
func (s *Simulator) heapRemove(i int) {
	last := len(s.heap) - 1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if i == last {
		return
	}
	if i > 0 && e.before(&s.heap[(i-1)>>2]) {
		s.siftUp(i, e)
	} else {
		s.siftDown(i, e)
	}
}

// siftUp places e at or above the hole at position j: parents that sort
// after e move down into the hole until e fits.
func (s *Simulator) siftUp(j int, e heapEntry) {
	h := s.heap
	for j > 0 {
		parent := (j - 1) >> 2
		if !e.before(&h[parent]) {
			break
		}
		h[j] = h[parent]
		s.slots[h[j].idx].pos = int32(j)
		j = parent
	}
	h[j] = e
	s.slots[e.idx].pos = int32(j)
}

// siftDown places e at or below the hole at position j: the earliest child
// moves up into the hole until none sorts before e.
func (s *Simulator) siftDown(j int, e heapEntry) {
	h := s.heap
	n := len(h)
	for {
		first := j<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for k := first + 1; k < end; k++ {
			if h[k].before(&h[best]) {
				best = k
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[j] = h[best]
		s.slots[h[j].idx].pos = int32(j)
		j = best
	}
	h[j] = e
	s.slots[e.idx].pos = int32(j)
}
