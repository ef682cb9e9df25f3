package netsim

import (
	"time"

	"routeconv/internal/sim"
)

// This file holds the random traffic sources, Poisson and on/off, which
// support workload-sensitivity extensions; CBR (in node.go) is the paper's
// workload. Every source sends from one node to a fixed destination until
// its stop time, the only way it ends: nothing cancels a source.

// trafficSalt decorrelates per-source random streams from the per-node
// jitter streams that share the simulator seed.
const trafficSalt = 0x7472616666696373 // "traffics"

// sourceStream derives the private random stream for the node→dst traffic
// source. Per-source streams keep inter-arrival sequences identical
// across shard counts: they depend only on the source's own draw order.
func sourceStream(node *Node, dst NodeID) sim.Stream {
	return sim.NewStream(node.Sim().Seed()^trafficSalt,
		uint64(uint32(node.ID()))<<32|uint64(uint32(dst)))
}

// poisson sends packets with exponentially distributed inter-arrival
// times.
type poisson struct {
	node         *Node
	dst          NodeID
	meanInterval time.Duration
	size, ttl    int
	stopAt       time.Duration
	rng          sim.Stream
}

var _ sim.Handler = (*poisson)(nil)

// StartPoisson begins a Poisson process of mean rate 1/meanInterval from
// node to dst, running from start until stop.
func StartPoisson(node *Node, dst NodeID, meanInterval time.Duration, size, ttl int, start, stop time.Duration) {
	if meanInterval <= 0 {
		panic("netsim: Poisson mean interval must be positive")
	}
	p := &poisson{node: node, dst: dst, meanInterval: meanInterval, size: size, ttl: ttl, stopAt: stop, rng: sourceStream(node, dst)}
	node.Sim().ScheduleHandlerAt(start, p, 0, nil)
}

// HandleEvent implements sim.Handler: one tick sends one packet and draws
// the next inter-arrival gap. A gap that lands at or past the deadline is
// not scheduled at all: the source finishes with no dead event pending.
func (p *poisson) HandleEvent(int32, any) {
	now := p.node.Sim().Now()
	if now >= p.stopAt {
		return
	}
	p.node.SendData(p.dst, p.size, p.ttl)
	if gap := p.rng.Exp(p.meanInterval); now+gap < p.stopAt {
		p.node.Sim().ScheduleHandler(gap, p, 0, nil)
	}
}

// onOff event kinds.
const (
	onOffBegin int32 = iota
	onOffTick
)

// onOff alternates exponentially distributed ON and OFF periods, sending
// at a constant rate while ON (the classic bursty-traffic model).
type onOff struct {
	node            *Node
	dst             NodeID
	interval        time.Duration
	onMean, offMean time.Duration
	size, ttl       int
	stopAt          time.Duration
	on              bool
	until           time.Duration // end of the current period
	rng             sim.Stream
}

var _ sim.Handler = (*onOff)(nil)

// StartOnOff begins a bursty source: ON periods (mean onMean) during which
// packets flow every interval, separated by silent OFF periods (mean
// offMean). It starts ON at start and runs until stop.
func StartOnOff(node *Node, dst NodeID, interval, onMean, offMean time.Duration, size, ttl int, start, stop time.Duration) {
	if interval <= 0 || onMean <= 0 || offMean <= 0 {
		panic("netsim: on/off parameters must be positive")
	}
	o := &onOff{
		node: node, dst: dst, interval: interval,
		onMean: onMean, offMean: offMean,
		size: size, ttl: ttl, stopAt: stop,
		rng: sourceStream(node, dst),
	}
	node.Sim().ScheduleHandlerAt(start, o, onOffBegin, nil)
}

// HandleEvent implements sim.Handler, dispatching on the event kind.
func (o *onOff) HandleEvent(kind int32, _ any) {
	if kind == onOffBegin {
		o.begin()
	} else {
		o.tick()
	}
}

// begin opens an ON period.
func (o *onOff) begin() {
	now := o.node.Sim().Now()
	if now >= o.stopAt {
		return
	}
	o.on = true
	o.until = now + o.rng.Exp(o.onMean)
	o.tick()
}

func (o *onOff) tick() {
	now := o.node.Sim().Now()
	if now >= o.stopAt {
		return
	}
	if now >= o.until {
		// Go silent, then begin the next burst — unless the burst would
		// open at or past the deadline.
		o.on = false
		if gap := o.rng.Exp(o.offMean); now+gap < o.stopAt {
			o.node.Sim().ScheduleHandler(gap, o, onOffBegin, nil)
		}
		return
	}
	o.node.SendData(o.dst, o.size, o.ttl)
	// The final tick lands exactly on (or past) the boundary: finish
	// without scheduling a dead event.
	if now+o.interval < o.stopAt {
		o.node.Sim().ScheduleHandler(o.interval, o, onOffTick, nil)
	}
}
