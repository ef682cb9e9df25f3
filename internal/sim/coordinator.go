package sim

import "time"

// windowCmd tells one worker how far to advance its simulator.
type windowCmd struct {
	t         time.Duration
	inclusive bool
	stop      bool
}

// Coordinator drives K simulators in lockstep time windows, one persistent
// goroutine per simulator. Between windows all workers are parked at a
// barrier, so the owner may freely inspect and mutate every simulator
// (drain cross-shard inboxes, run control events, read NextEventTime);
// during a window each simulator is touched only by its own worker.
//
// Channel sends/receives of the small windowCmd value are the only
// synchronization; steady-state window advance performs no allocation.
type Coordinator struct {
	sims []*Simulator
	cmd  []chan windowCmd
	done chan struct{}
}

// NewCoordinator starts one worker goroutine per simulator and returns the
// coordinator with all workers parked. Call Stop to terminate the workers.
func NewCoordinator(sims []*Simulator) *Coordinator {
	c := &Coordinator{
		sims: sims,
		cmd:  make([]chan windowCmd, len(sims)),
		done: make(chan struct{}, len(sims)),
	}
	for i := range sims {
		c.cmd[i] = make(chan windowCmd)
		go c.worker(sims[i], c.cmd[i])
	}
	return c
}

// worker advances one simulator window by window until told to stop.
func (c *Coordinator) worker(s *Simulator, cmd chan windowCmd) {
	for w := range cmd {
		if w.stop {
			c.done <- struct{}{}
			return
		}
		if w.inclusive {
			s.RunUntil(w.t)
		} else {
			s.RunBefore(w.t)
		}
		c.done <- struct{}{}
	}
}

// RunWindow advances every simulator through the window ending at t:
// each executes its events strictly before t, then parks with its clock
// at t. Blocks until all workers reach the barrier.
func (c *Coordinator) RunWindow(t time.Duration) { c.run(t, false) }

// RunWindowUntil is RunWindow but inclusive of events at exactly t. Used
// for the final window so end-of-trial semantics match the sequential
// RunUntil(End).
func (c *Coordinator) RunWindowUntil(t time.Duration) { c.run(t, true) }

func (c *Coordinator) run(t time.Duration, inclusive bool) {
	for _, ch := range c.cmd {
		ch <- windowCmd{t: t, inclusive: inclusive}
	}
	for range c.cmd {
		<-c.done
	}
}

// MinNextEvent returns the earliest pending event time across all
// simulators, and whether any simulator has pending events. Only valid
// while workers are parked between windows.
func (c *Coordinator) MinNextEvent() (time.Duration, bool) {
	var best time.Duration
	ok := false
	for _, s := range c.sims {
		if t, has := s.NextEventTime(); has && (!ok || t < best) {
			best, ok = t, true
		}
	}
	return best, ok
}

// Stop terminates all worker goroutines and waits for them to exit.
func (c *Coordinator) Stop() {
	for _, ch := range c.cmd {
		ch <- windowCmd{stop: true}
	}
	for range c.cmd {
		<-c.done
	}
}
