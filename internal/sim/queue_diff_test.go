package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The differential harness: one byte program drives the Simulator and a
// trivially-correct reference queue (a slice kept sorted by (at, seq))
// through the same schedule/lane/cancel/timer/run operations, from outside
// the event loop and from inside handlers — where the Simulator's root is
// vacated, or a lane's head was just popped — and the two observation logs
// must be identical. To the reference a lane event is just an event at
// now + d.

// handle is what a scheduled event hands back, in both implementations.
type handle interface {
	Cancel()
	Pending() bool
	Cancelled() bool
	Time() time.Duration
}

// restartable is the Timer surface the programs exercise.
type restartable interface {
	Reset(time.Duration)
	ResetIfStopped(time.Duration) bool
	Stop()
	Pending() bool
	Deadline() time.Duration
}

// queue is the surface shared by the Simulator adaptor and the reference.
type queue interface {
	Now() time.Duration
	Pending() int
	NextEventTime() (time.Duration, bool)
	Step() bool
	RunUntil(time.Duration)
	RunBefore(time.Duration)
	// schedule queues the world's fire(id) at time at, as a typed event or
	// a closure.
	schedule(at time.Duration, typed bool, id int) handle
	// scheduleFixed queues fire(id) after d through ScheduleFixed: no
	// handle, no cancelling.
	scheduleFixed(d time.Duration, id int)
	newTimer(fn func()) restartable
}

// simQueue adapts the real Simulator.
type simQueue struct {
	*Simulator
	fire func(int)
}

func (q *simQueue) HandleEvent(kind int32, data any) {
	if data != nil {
		panic("typed event's data was not carried through")
	}
	q.fire(int(kind))
}

func (q *simQueue) schedule(at time.Duration, typed bool, id int) handle {
	if typed {
		return q.ScheduleHandlerAt(at, q, int32(id), nil)
	}
	return q.ScheduleAt(at, func() { q.fire(id) })
}

func (q *simQueue) scheduleFixed(d time.Duration, id int) {
	q.ScheduleFixed(d, q, int32(id), nil)
}

func (q *simQueue) newTimer(fn func()) restartable { return NewTimer(q.Simulator, fn) }

// refQueue is the reference: events in a slice sorted by (at, seq), popped
// from the front. It also models the arena's documented slot policy — a
// LIFO free list, a firing event's slot freed before its handler runs, no
// slot for an event in a lane, a lane for each of the first maxLanes
// delays — only because Cancelled() on a stale handle is specified in
// terms of it.
type refQueue struct {
	fire   func(int)
	now    time.Duration
	seq    uint64
	events []*refEvent
	free   []int
	tenant []*refEvent     // slot → the event occupying (or last to occupy) it
	lanes  []time.Duration // delays that took a lane, in order of first use
}

type refEvent struct {
	q         *refQueue
	at        time.Duration
	seq       uint64
	slot      int // -1: a lane event, which takes no slot
	fn        func()
	pending   bool
	cancelled bool
}

func (e *refEvent) Time() time.Duration { return e.at }
func (e *refEvent) Pending() bool       { return e.pending }
func (e *refEvent) Cancelled() bool     { return e.cancelled && e.q.tenant[e.slot] == e }
func (e *refEvent) Cancel() {
	if !e.pending {
		return
	}
	e.pending, e.cancelled = false, true
	q := e.q
	for i, x := range q.events {
		if x == e {
			q.events = append(q.events[:i], q.events[i+1:]...)
			break
		}
	}
	q.free = append(q.free, e.slot)
}

func (q *refQueue) Now() time.Duration { return q.now }
func (q *refQueue) Pending() int       { return len(q.events) }
func (q *refQueue) NextEventTime() (time.Duration, bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].at, true
}

// scheduleFn queues fn at time at, in a slot when slotted.
func (q *refQueue) scheduleFn(at time.Duration, fn func(), slotted bool) *refEvent {
	if at < q.now {
		panic("reference: schedule in the past")
	}
	e := &refEvent{q: q, at: at, seq: q.seq, slot: -1, fn: fn, pending: true}
	q.seq++
	if n := len(q.free); slotted && n > 0 {
		e.slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.tenant[e.slot] = e
	} else if slotted {
		e.slot = len(q.tenant)
		q.tenant = append(q.tenant, e)
	}
	// e carries the highest seq so far: it goes behind every event due at
	// or before its time.
	i := len(q.events)
	q.events = append(q.events, nil)
	for ; i > 0 && q.events[i-1].at > at; i-- {
		q.events[i] = q.events[i-1]
	}
	q.events[i] = e
	return e
}

func (q *refQueue) schedule(at time.Duration, _ bool, id int) handle {
	return q.scheduleFn(at, func() { q.fire(id) }, true)
}

func (q *refQueue) scheduleFixed(d time.Duration, id int) {
	lane := slices.Contains(q.lanes, d)
	if !lane && len(q.lanes) < maxLanes {
		q.lanes = append(q.lanes, d)
		lane = true
	}
	q.scheduleFn(q.now+d, func() { q.fire(id) }, !lane)
}

func (q *refQueue) Step() bool {
	if len(q.events) == 0 {
		return false
	}
	e := q.events[0]
	q.events = q.events[1:]
	q.now = e.at
	e.pending = false
	if e.slot >= 0 {
		q.free = append(q.free, e.slot)
	}
	e.fn()
	return true
}

func (q *refQueue) RunUntil(t time.Duration) {
	for len(q.events) > 0 && q.events[0].at <= t {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *refQueue) RunBefore(t time.Duration) {
	for len(q.events) > 0 && q.events[0].at < t {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

// refTimer restates Timer over the reference queue.
type refTimer struct {
	q  *refQueue
	fn func()
	ev *refEvent
}

func (q *refQueue) newTimer(fn func()) restartable { return &refTimer{q: q, fn: fn} }

func (t *refTimer) arm(d time.Duration) {
	t.ev = t.q.scheduleFn(t.q.now+d, func() {
		t.ev = nil
		t.fn()
	}, true)
}
func (t *refTimer) Reset(d time.Duration) { t.Stop(); t.arm(d) }
func (t *refTimer) ResetIfStopped(d time.Duration) bool {
	if t.Pending() {
		return false
	}
	t.arm(d)
	return true
}
func (t *refTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}
func (t *refTimer) Pending() bool           { return t.ev != nil && t.ev.Pending() }
func (t *refTimer) Deadline() time.Duration { return t.ev.Time() }

// world interprets one program against one queue and logs what it sees.
type world struct {
	q       queue
	prog    []byte
	pc      int
	handles []handle // nil for an event scheduled through ScheduleFixed
	timers  [3]restartable
	log     []string
	ops     int
}

// maxOps bounds a program's operations, so that a fuzz input cannot make
// events breed forever.
const maxOps = 1024

func (w *world) next() byte {
	if w.pc >= len(w.prog) {
		return 0
	}
	b := w.prog[w.pc]
	w.pc++
	return b
}

func (w *world) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// delta decodes a delay: mostly a few milliseconds, so that many events
// share an instant and run targets land exactly on event times; sometimes
// a far-future timer that sits at the heap's leaves.
func delta(b byte) time.Duration {
	if b >= 192 {
		return time.Duration(b) * time.Second
	}
	return time.Duration(b%6) * time.Millisecond
}

func (w *world) scheduleOne(at time.Duration) {
	b := w.next()
	id := len(w.handles)
	w.handles = append(w.handles, nil)
	w.handles[id] = w.q.schedule(at, b&1 == 0, id)
	w.logf("sched %d at %v", id, at)
}

// laneDelays are the delays lane events use: more than maxLanes of them, so
// that the last to appear in a program go through the heap; all but one
// on the millisecond grid where delta puts heap events, so lane heads and
// heap roots often share an instant and only the sequence number orders
// them.
var laneDelays = [...]time.Duration{
	time.Millisecond, 0, 2 * time.Millisecond, 5 * time.Millisecond,
	3 * time.Millisecond, 200 * time.Second,
}

func (w *world) laneOne(d time.Duration) {
	id := len(w.handles)
	w.handles = append(w.handles, nil)
	w.q.scheduleFixed(d, id)
	w.logf("lane %d at %v", id, w.q.Now()+d)
}

// tie queues a lane event and a heap event for the same instant, in the
// order the program says.
func (w *world) tie() {
	b := w.next()
	d := laneDelays[int(b)%len(laneDelays)]
	if b&0x80 != 0 {
		w.laneOne(d)
		w.scheduleOne(w.q.Now() + d)
	} else {
		w.scheduleOne(w.q.Now() + d)
		w.laneOne(d)
	}
}

// nestedRun runs the queue from inside a handler, up to or before a
// target the program picks.
func (w *world) nestedRun() {
	b := w.next()
	t := w.q.Now() + delta(w.next())
	if b&1 == 0 {
		w.q.RunUntil(t)
		w.logf("nested ran until %v", w.q.Now())
	} else {
		w.q.RunBefore(t)
		w.logf("nested ran before %v", w.q.Now())
	}
}

// probe logs everything observable about the queue and one handle.
func (w *world) probe() {
	n := w.q.Pending() // before NextEventTime, which settles a vacated root
	t, ok := w.q.NextEventTime()
	w.logf("now %v pending %d next %v %v", w.q.Now(), n, t, ok)
	if len(w.handles) > 0 {
		i := int(w.next()) % len(w.handles)
		if h := w.handles[i]; h != nil {
			w.logf("handle %d at %v pending %v cancelled %v", i, h.Time(), h.Pending(), h.Cancelled())
		}
	}
	for i, t := range w.timers {
		if t.Pending() {
			w.logf("timer %d due %v", i, t.Deadline())
		}
	}
}

func (w *world) cancelOne() {
	if len(w.handles) == 0 {
		return
	}
	i := int(w.next()) % len(w.handles)
	if h := w.handles[i]; h != nil {
		h.Cancel()
		w.logf("cancel %d", i)
	}
}

func (w *world) timerOp() {
	b := w.next()
	t := w.timers[int(b)%len(w.timers)]
	switch (b >> 2) % 3 {
	case 0:
		t.Reset(delta(w.next()))
	case 1:
		w.logf("resetIfStopped %v", t.ResetIfStopped(delta(w.next())))
	case 2:
		t.Stop()
	}
}

// fire is every event's handler. What it does next comes from the program,
// read when it fires: the two queues stay in step only while they fire the
// same events in the same order.
func (w *world) fire(id int) {
	w.logf("fire %d at %v", id, w.q.Now())
	if w.ops++; w.ops > maxOps {
		return
	}
	now := w.q.Now()
	switch w.next() % 13 {
	case 0: // schedules nothing: the root is filled from the last leaf
	case 1: // one near successor on the heap: it takes the vacated root
		w.scheduleOne(now + delta(w.next()))
	case 2: // a successor at exactly now
		w.scheduleOne(now)
	case 3: // many
		for n := 2 + int(w.next())%4; n > 0; n-- {
			w.scheduleOne(now + delta(w.next()))
		}
	case 4: // cancel another pending event while the root is vacated
		w.cancelOne()
	case 5: // cancel first, then schedule into a settled heap
		w.cancelOne()
		w.scheduleOne(now + delta(w.next()))
	case 6: // schedule into the root, then cancel (possibly the newcomer)
		w.scheduleOne(now + delta(w.next()))
		w.cancelOne()
	case 7: // cancel itself: already fired, a no-op, and not Cancelled
		if h := w.handles[id]; h != nil {
			h.Cancel()
			w.logf("self pending %v cancelled %v", h.Pending(), h.Cancelled())
		}
	case 8: // read the queue mid-dispatch
		w.probe()
		w.scheduleOne(now + delta(w.next()))
	case 9:
		w.timerOp()
	case 10: // a lane successor: a packet's next hop, a CBR tick
		w.laneOne(laneDelays[int(w.next())%len(laneDelays)])
	case 11:
		w.tie()
	case 12:
		w.nestedRun()
	}
}

func (w *world) run() {
	for i := range w.timers {
		i := i
		w.timers[i] = w.q.newTimer(func() {
			w.logf("timer %d fired at %v", i, w.q.Now())
			if w.ops++; w.ops > maxOps {
				return
			}
			if w.next()%3 == 1 { // periodic: the timer re-arms itself
				w.timers[i].Reset(delta(w.next()))
			}
		})
	}
	for w.pc < len(w.prog) {
		if w.ops++; w.ops > maxOps {
			break
		}
		switch w.next() % 11 {
		case 0, 1:
			w.scheduleOne(w.q.Now() + delta(w.next()))
		case 2:
			w.cancelOne()
		case 3:
			w.timerOp()
		case 4:
			w.logf("step %v", w.q.Step())
		case 5:
			w.q.RunUntil(w.q.Now() + delta(w.next()))
			w.logf("ran until %v", w.q.Now())
		case 6:
			w.q.RunBefore(w.q.Now() + delta(w.next()))
			w.logf("ran before %v", w.q.Now())
		case 7:
			// Up to and then exactly onto the next event's instant: it
			// must survive RunBefore and fire in RunUntil.
			if t, ok := w.q.NextEventTime(); ok {
				w.q.RunBefore(t)
				w.probe()
				w.q.RunUntil(t)
			}
		case 8:
			w.probe()
		case 9:
			w.laneOne(laneDelays[int(w.next())%len(laneDelays)])
		case 10:
			w.tie()
		}
	}
	// Drain. The program is exhausted, so handlers schedule nothing more.
	for w.q.Step() {
	}
	w.probe()
	for i, h := range w.handles {
		if h != nil && h.Pending() {
			w.logf("handle %d still pending after the drain", i)
		}
	}
}

// checkQueueProgram runs prog on both queues and fails on the first
// observation that differs.
func checkQueueProgram(t *testing.T, prog []byte) {
	t.Helper()
	real, ref := &world{prog: prog}, &world{prog: prog}
	real.q = &simQueue{Simulator: New(1), fire: real.fire}
	ref.q = &refQueue{fire: ref.fire}
	real.run()
	ref.run()
	for i := 0; i < len(real.log) || i < len(ref.log); i++ {
		var a, b string
		if i < len(real.log) {
			a = real.log[i]
		}
		if i < len(ref.log) {
			b = ref.log[i]
		}
		if a != b {
			t.Fatalf("observation %d differs:\n  simulator: %q\n  reference: %q\nprogram: %q", i, a, b, prog)
		}
	}
	s := real.q.(*simQueue).Simulator
	if len(s.heap) != 0 || s.vacant {
		t.Fatalf("drained simulator keeps %d heap entries (vacant=%v)", len(s.heap), s.vacant)
	}
	for i := range s.lanes[:s.nlanes] {
		if l := &s.lanes[i]; l.count != 0 {
			t.Fatalf("drained simulator keeps %d events in its %v lane", l.count, l.delay)
		}
	}
	if want := len(s.slots); len(s.free) != want {
		t.Fatalf("drained simulator has %d of %d slots free", len(s.free), want)
	}
}

func TestQueueDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20030622))
	n := 400
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		prog := make([]byte, 64+rng.Intn(1500))
		rng.Read(prog)
		checkQueueProgram(t, prog)
	}
}

// FuzzQueueOrder explores the same program encoding; its seed corpus lives
// in testdata/fuzz/FuzzQueueOrder.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 200, 0, 4, 1, 2, 0, 4, 4})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			t.Skip()
		}
		checkQueueProgram(t, prog)
	})
}
