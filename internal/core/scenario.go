package core

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/scenario"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
	"routeconv/internal/trace"
)

// churnSalt decorrelates per-churn-event random streams from the node,
// traffic, and loss streams sharing the simulator seed.
const churnSalt = 0x636875726e657674 // "churnevt"

// scenarioRunner schedules a trial's disturbance script on the root
// simulator. Scenario events always run on the root simulator — in a
// sharded run that means at window barriers, where the whole network state
// is globally consistent — so every event kind is shard-safe by
// construction; only per-packet loss draws happen inside windows, and those
// use per-port streams (netsim.SetLinkLoss).
type scenarioRunner struct {
	cfg       *Config
	s         *sim.Simulator
	net       *netsim.Network
	g         *topology.Graph
	meshEdges []topology.Edge
	flows     []*flow
	rec       *trace.Collector
	// failedLink and warmedUp receive the failpath event's probe results
	// (they stay zero for scripts without one).
	failedLink *topology.Edge
	warmedUp   *bool
}

// samplePaths records every flow's current forwarding walk.
func (r *scenarioRunner) samplePaths() { r.rec.SamplePath() }

// install schedules every event of the script. Events are scheduled in
// script order (time-sorted, ties in insertion order), which the simulator
// preserves for same-instant events — the property that keeps the default
// failpath schedule bit-for-bit identical to the original hard-coded code.
func (r *scenarioRunner) install(sc *scenario.Script) {
	for i, ev := range sc.Events {
		ev := ev
		switch ev.Kind {
		case scenario.KindFailPath:
			r.installFailPath(ev)
		case scenario.KindFailRandom:
			r.installFailRandom(ev)
		case scenario.KindFailLink:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				for _, e := range ev.Links {
					r.failLink(e)
				}
				r.samplePaths()
			})
		case scenario.KindRestoreLink:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				for _, e := range ev.Links {
					r.net.RestoreLink(e.A, e.B)
				}
				r.samplePaths()
			})
		case scenario.KindFailNode:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				r.net.Metrics().Inc(obs.ScenarioNodeFails)
				took := r.net.FailNode(ev.Node)
				r.net.Metrics().Add(obs.ScenarioLinkFails, uint64(took))
				r.samplePaths()
			})
		case scenario.KindRecoverNode:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				r.net.RecoverNode(ev.Node)
				r.samplePaths()
			})
		case scenario.KindFlapLink:
			r.installFlap(ev)
		case scenario.KindSetLoss:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				e := ev.Links[0]
				r.net.SetLinkLoss(e.A, e.B, ev.Rate)
			})
		case scenario.KindCostOut:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				e := ev.Links[0]
				r.net.CostOutLink(e.A, e.B)
				r.samplePaths()
			})
		case scenario.KindCostIn:
			r.s.ScheduleAt(ev.At, func() {
				r.event()
				e := ev.Links[0]
				r.net.CostInLink(e.A, e.B)
				r.samplePaths()
			})
		case scenario.KindChurn:
			r.installChurn(ev, i)
		}
	}
}

// event accounts one executed scenario event.
func (r *scenarioRunner) event() { r.net.Metrics().Inc(obs.ScenarioEvents) }

// failLink fails one link with scenario accounting.
func (r *scenarioRunner) failLink(e topology.Edge) {
	r.net.Metrics().Inc(obs.ScenarioLinkFails)
	r.net.FailLink(e.A, e.B)
}

// installFailPath schedules the paper's original event: fail one random
// recoverable link on the measured flow's forwarding path, with the
// optional repair/flap cycle. The body is the harness's original failure
// code — same probe, same randomness draws from the shared simulator RNG,
// same schedule structure — so the golden fixtures pinned before scripts
// existed still hold bit-for-bit.
func (r *scenarioRunner) installFailPath(ev scenario.Event) {
	primary := r.flows[0]
	net, s := r.net, r.s
	r.s.ScheduleAt(ev.At, func() {
		r.event()
		path, ok := net.WalkPath(nil, primary.srcHost, primary.dstHost)
		*r.warmedUp = ok
		candidates := pathMeshLinks(path, ok)
		if len(candidates) == 0 {
			// Unconverged flow: fall back to the topological shortest path
			// between the attachment routers.
			sp, spOK := r.g.ShortestPath(primary.srcRouter, primary.dstRouter)
			candidates = pathLinks(sp, spOK)
		}
		// Only recoverable failures are studied (the paper's flows always
		// converge to a new path): links whose removal would disconnect
		// the flow are not candidates.
		candidates = recoverable(net, r.meshEdges, candidates, primary.srcRouter, primary.dstRouter)
		if len(candidates) == 0 {
			return // nothing to fail; the trial proceeds undisturbed
		}
		failedLink := candidates[s.Rand().Intn(len(candidates))]
		*r.failedLink = failedLink
		r.failLink(failedLink)
		r.samplePaths()
		if ev.Restore <= 0 {
			return
		}
		// Link repair, optionally cycled into flaps (route-flap-damping
		// experiments): cycle i fails at At + i·2·Restore.
		cycle := 2 * ev.Restore
		flaps := ev.Flaps
		if flaps < 1 {
			flaps = 1
		}
		for i := 0; i < flaps; i++ {
			downAt := ev.At + time.Duration(i)*cycle
			s.ScheduleAt(downAt+ev.Restore, func() {
				net.RestoreLink(failedLink.A, failedLink.B)
				r.samplePaths()
			})
			if i > 0 {
				s.ScheduleAt(downAt, func() {
					r.failLink(failedLink)
					r.samplePaths()
				})
			}
		}
	})
}

// installFailRandom schedules a failrandom event: fail one random
// currently-up router link. The body is the original multiple-failure code
// (same shared-RNG draw).
func (r *scenarioRunner) installFailRandom(ev scenario.Event) {
	net, s := r.net, r.s
	r.s.ScheduleAt(ev.At, func() {
		r.event()
		var live []topology.Edge
		for _, e := range r.meshEdges {
			if l := net.Link(e.A, e.B); l != nil && l.Up() {
				live = append(live, e)
			}
		}
		if len(live) == 0 {
			return
		}
		e := live[s.Rand().Intn(len(live))]
		r.failLink(e)
		r.samplePaths()
	})
}

// installFlap schedules every cycle of a flap storm up front (the times
// are all known): cycle i fails at At + i·Period and restores half a
// period later, so the link ends the storm up.
func (r *scenarioRunner) installFlap(ev scenario.Event) {
	e := ev.Links[0]
	for i := 0; i < ev.Cycles; i++ {
		downAt := ev.At + time.Duration(i)*ev.Period
		first := i == 0
		r.s.ScheduleAt(downAt, func() {
			if first {
				r.event()
			}
			r.failLink(e)
			r.samplePaths()
		})
		r.s.ScheduleAt(downAt+ev.Period/2, func() {
			r.net.RestoreLink(e.A, e.B)
			r.samplePaths()
		})
	}
}

// installChurn schedules a continuous-churn window: failures arrive as a
// Poisson process of ev.Rate per second over the candidate set, each victim
// drawn uniformly from the currently-up candidates and repaired after an
// exponential downtime of mean ev.MeanDown. All draws come from the churn
// event's private stream (seeded by the simulator seed and the event's
// script index), so the schedule is deterministic and — because churn runs
// on the root simulator — identical across shard counts.
func (r *scenarioRunner) installChurn(ev scenario.Event, idx int) {
	st := sim.NewStream(r.s.Seed()^churnSalt, uint64(idx))
	candidates := ev.Links
	if len(candidates) == 0 {
		candidates = r.meshEdges
	}
	meanGap := time.Duration(float64(time.Second) / ev.Rate)
	var live []topology.Edge // reused scratch for the up-candidate set
	var tick func()
	tick = func() {
		if r.s.Now() >= ev.Until {
			return
		}
		live = live[:0]
		for _, e := range candidates {
			if l := r.net.Link(e.A, e.B); l != nil && l.Up() {
				live = append(live, e)
			}
		}
		if len(live) > 0 {
			victim := live[st.Int63n(int64(len(live)))]
			r.net.Metrics().Inc(obs.ScenarioChurnCycles)
			r.failLink(victim)
			r.s.Schedule(st.Exp(ev.MeanDown), func() {
				r.net.RestoreLink(victim.A, victim.B)
				r.samplePaths()
			})
			r.samplePaths()
		}
		r.s.Schedule(st.Exp(meanGap), tick)
	}
	r.s.ScheduleAt(ev.At, func() {
		r.event()
		r.net.Note(obs.Record{At: r.s.Now(), Kind: obs.KindChurnStart, Node: -1, Peer: -1, Dst: -1, Rate: ev.Rate})
		tick()
	})
	r.s.ScheduleAt(ev.Until, func() {
		r.net.Note(obs.Record{At: r.s.Now(), Kind: obs.KindChurnEnd, Node: -1, Peer: -1, Dst: -1})
	})
}
