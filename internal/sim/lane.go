package sim

import "time"

// maxLanes bounds the lanes one simulator keeps. Every Step compares each
// lane's head, and a trial has few delays that recur: a link's propagation,
// a data packet's serialization, a CBR interval. A delay that finds every
// lane taken goes through the heap.
const maxLanes = 4

// laneEntry is one event waiting in a lane, its key and payload inline.
type laneEntry struct {
	at   time.Duration
	seq  uint64
	h    Handler
	data any
	kind int32
}

// lane is a FIFO of events that all fire delay after they were scheduled.
// The clock never goes back and sequence numbers only grow, so appending
// keeps the ring in (at, seq) order: its head is its earliest event, and
// nothing is ever sorted.
type lane struct {
	delay time.Duration
	ring  []laneEntry // len is 0 or a power of two
	head  int         // index of the earliest entry
	count int         // entries in the ring
}

// push appends an event, growing the ring only when it is full. The
// fields are stored one by one: copying a whole entry into the ring costs
// a bulk write barrier while the collector runs.
func (l *lane) push(at time.Duration, seq uint64, h Handler, kind int32, data any) {
	if l.count == len(l.ring) {
		grown := make([]laneEntry, max(2*len(l.ring), 16))
		n := copy(grown, l.ring[l.head:])
		copy(grown[n:], l.ring[:l.head])
		l.ring, l.head = grown, 0
	}
	e := &l.ring[(l.head+l.count)&(len(l.ring)-1)]
	e.at, e.seq, e.h, e.kind, e.data = at, seq, h, kind, data
	l.count++
}

// pop removes the earliest entry and returns its time and payload.
func (l *lane) pop() (at time.Duration, h Handler, kind int32, data any) {
	e := &l.ring[l.head]
	at, h, kind, data = e.at, e.h, e.kind, e.data
	e.h, e.data = nil, nil // the ring must not keep them alive
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.count--
	return at, h, kind, data
}

// ScheduleFixed runs h.HandleEvent(kind, data) after delay of virtual
// time, like ScheduleHandler, for a delay that recurs. Events that share
// a delay wait in a lane, a FIFO that needs no sorting, instead of the
// heap; they fire in the same (time, sequence) order as every other
// event. The first four (maxLanes) distinct delays a simulator sees get
// lanes; any other delay goes through the heap. A lane event cannot be
// cancelled, so ScheduleFixed returns no Event. In steady state it
// allocates nothing, provided data is nil or holds a pointer.
func (s *Simulator) ScheduleFixed(delay time.Duration, h Handler, kind int32, data any) {
	l := s.lane(delay)
	if l == nil {
		s.ScheduleHandler(delay, h, kind, data)
		return
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	l.push(s.now+delay, s.seq, h, kind, data)
	s.seq++
}

// lane returns the lane for delay, opening one while fewer than maxLanes
// are open, or nil when delay must go through the heap (including a
// negative delay, which ScheduleHandler rejects).
func (s *Simulator) lane(delay time.Duration) *lane {
	for i := range s.lanes[:s.nlanes] {
		if s.lanes[i].delay == delay {
			return &s.lanes[i]
		}
	}
	if delay < 0 || s.nlanes == maxLanes {
		return nil
	}
	l := &s.lanes[s.nlanes]
	l.delay = delay
	s.nlanes++
	return l
}

// next returns the time of the earliest pending event and where it waits:
// in lane l, or at the heap root when l is nil. ok is false when nothing
// is pending. The heap must be settled.
func (s *Simulator) next() (at time.Duration, l *lane, ok bool) {
	var seq uint64
	if len(s.heap) > 0 {
		at, seq, ok = s.heap[0].at, s.heap[0].seq, true
	}
	for i := range s.lanes[:s.nlanes] {
		c := &s.lanes[i]
		if c.count == 0 {
			continue
		}
		if e := &c.ring[c.head]; !ok || e.at < at || (e.at == at && e.seq < seq) {
			at, seq, l, ok = e.at, e.seq, c, true
		}
	}
	return at, l, ok
}
