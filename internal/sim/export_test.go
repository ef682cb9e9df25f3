package sim

// Cancelled reports whether Cancel was called on the event. Once the
// event's slot has been recycled by a later event it reports false. Only
// tests tell a cancelled event from a fired one; the engine needs neither.
func (e Event) Cancelled() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.idx]
	return sl.gen == e.gen && sl.state == slotCancelled
}
