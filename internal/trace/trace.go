// Package trace records one trial and derives the paper's convergence
// metrics from that record: the network routing convergence time (last
// routing table change anywhere, §5.4) and the forwarding path convergence
// delay (last change of the sender→receiver forwarding walk), plus the
// transient-path and delivery/drop records that Figures 3–7 are computed
// from.
package trace

import (
	"cmp"
	"slices"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/stats"
)

// PathSample is the sender→receiver forwarding walk observed at one
// instant. Path holds the nodes visited; OK is false when the walk hit a
// missing route, a loop, or a down link.
type PathSample struct {
	At   time.Duration
	Path []netsim.NodeID
	OK   bool
}

// Delivery records one data packet arriving at its destination.
type Delivery struct {
	At    time.Duration
	Delay time.Duration
	Hops  int
	// Looped reports whether the packet's trace revisited a node before
	// delivery (an escaped transient loop, §5.5). Only meaningful when the
	// network records hops.
	Looped bool
}

// Drop records one lost packet.
type Drop struct {
	At     time.Duration
	Where  netsim.NodeID
	Reason netsim.DropReason
}

// Flow is one packet flow's record: its sender→receiver forwarding walk
// over time, and the deliveries and data drops of packets sent to its
// receiver. Deliveries are listed by full-mode collectors only.
type Flow struct {
	Src, Dst    netsim.NodeID
	PathHistory []PathSample
	Deliveries  []Delivery
	Drops       []Drop

	// The open instant's last walk toward Dst, if a route change toward
	// Dst raised one; it becomes a path sample when the instant ends. Every
	// walk of the flow's path is taken into walk's storage.
	walk   []netsim.NodeID
	walkOK bool
	walked bool
}

// Options configure a Collector.
type Options struct {
	// Seed is the trial seed, written into the stream's trial_start record.
	Seed int64
	// FailAt is the failure time the stream's convergence summary
	// (fib_first_change, fib_last_change, convergence_complete) and the
	// post-failure Arrivals are measured from: the trial's Config.Anchor.
	FailAt time.Duration
	// Start and End bound the primary flow's per-second delivery bins
	// (Arrivals): ⌊(End−Start)/1 s⌋ bins from Start.
	Start, End time.Duration
	// PostFailCap and DeliveryCap are the initial capacities of the
	// primary flow's post-failure delay list (Arrivals.PostFail) and, in
	// full mode, of its Deliveries: the caller knows the traffic process
	// and so how many packets to expect. Zero leaves a list to grow on
	// demand.
	PostFailCap, DeliveryCap int
	// Compact keeps no record stream and lists no deliveries: route
	// changes are only counted, with the time of the last one, which is
	// all RoutingConvergence needs. A converging 10k-node network makes
	// ~10⁸ route changes, so bulk trial runs (core.Run) are compact and
	// tracing is not. Path samples, drops and Arrivals are kept either way.
	Compact bool
	// Timeline, when non-nil, is the record stream the collector commits
	// to, and implies full mode. A full-mode collector without one commits
	// to a private stream (see Timeline).
	Timeline *obs.Timeline
}

// Collector is the trial recorder: the one netsim.Observer of a trial. It
// keeps every packet flow's record and, in full mode, the trial's committed
// record stream — FIB changes and every note netsim raises, closed by the
// convergence summary. Create it, add the trial's other flows, pass it to
// netsim as the observer, then call SetNetwork before the simulation
// starts and Finish after it ends.
//
// Recording is instant-granular: everything raised at one simulation
// instant is buffered until the instant ends, then committed once, in
// canonical order: FIB changes reduced to their net effect, records and
// drops sorted by content, and each flow's forwarding walk sampled at the
// instant's final state. Same-instant events carry no defined order — a
// sequential run orders them by scheduling accident, a sharded run by shard
// interleaving — so canonical commit order is what makes trial output
// identical across engine configurations.
type Collector struct {
	// Flow is the primary flow, the one the trial measures.
	Flow
	Arrivals Arrivals
	flows    []*Flow // every packet flow, primary first
	// byDst[dst-dstLo] is the index in flows of the flow toward host dst,
	// or -1.
	byDst []int32
	dstLo netsim.NodeID

	net     *netsim.Network
	compact bool
	failAt  time.Duration
	tl      *obs.Timeline // the committed stream; nil when compact

	// The raw route-change stream: its length and latest time, and in full
	// mode each node's first and last change at or after failAt (-1: none),
	// indexed by node.
	routeChangeN    int
	lastRouteChange time.Duration
	firstChange     []time.Duration
	lastChange      []time.Duration

	// The open instant: its time, its FIB changes and notes, and its drops.
	at       time.Duration
	open     bool
	pend     []obs.Record
	pendDrop []flowDrop
	// shadow mirrors every forwarding entry as of the last committed
	// instant ((node, dst) → next hop, absent = no route), so commits can
	// reduce an instant's churn to its net effect. lastIdx is commit
	// scratch. Full mode only.
	shadow  map[uint64]int32
	lastIdx map[uint64]int

	// ControlDrops records every lost routing message.
	ControlDrops []Drop
}

// Arrivals is what a trial's results read of its primary flow's
// deliveries, folded at arrival in either mode.
type Arrivals struct {
	// PerSecond bins each delivery's delay in seconds by arrival time.
	PerSecond stats.Bins
	// PostFail holds the delay in seconds of every delivery at or after
	// Options.FailAt.
	PostFail []float64
	// LoopEscapes counts the deliveries at or after Options.FailAt whose
	// packets had crossed a forwarding loop (netsim's RecordHops only).
	LoopEscapes int
}

// flowDrop is one pending drop and the index of its flow (-1: control).
type flowDrop struct {
	flow int32
	Drop
}

var _ netsim.RouteFilter = (*Collector)(nil)

// NewCollector returns a collector whose primary flow is src→dst.
func NewCollector(src, dst netsim.NodeID, opts Options) *Collector {
	c := &Collector{
		Flow:     Flow{Src: src, Dst: dst},
		Arrivals: Arrivals{PerSecond: stats.NewBins(opts.Start, time.Second, int((opts.End-opts.Start)/time.Second))},
		compact:  opts.Compact && opts.Timeline == nil,
		failAt:   opts.FailAt,
		byDst:    []int32{0},
		dstLo:    dst,
	}
	c.flows = []*Flow{&c.Flow}
	if opts.PostFailCap > 0 {
		c.Arrivals.PostFail = make([]float64, 0, opts.PostFailCap)
	}
	if opts.DeliveryCap > 0 && !c.compact {
		c.Deliveries = make([]Delivery, 0, opts.DeliveryCap)
	}
	if !c.compact {
		c.tl = opts.Timeline
		if c.tl == nil {
			c.tl = obs.NewTimeline()
		}
		c.tl.Append(obs.Record{Kind: obs.KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: opts.Seed})
	}
	return c
}

// AddFlow adds the packet flow src→dst. Flows are added in increasing
// receiver order: dst must exceed every earlier flow's receiver.
func (c *Collector) AddFlow(src, dst netsim.NodeID) {
	i := int(dst - c.dstLo)
	if i < len(c.byDst) {
		panic("trace: AddFlow receivers must increase")
	}
	for len(c.byDst) < i {
		c.byDst = append(c.byDst, -1)
	}
	c.byDst = append(c.byDst, int32(len(c.flows)))
	c.flows = append(c.flows, &Flow{Src: src, Dst: dst})
}

// Flows returns every packet flow's record, the primary flow first.
func (c *Collector) Flows() []*Flow { return c.flows }

// flowTo returns the index of the flow whose receiver is dst, or -1.
func (c *Collector) flowTo(dst netsim.NodeID) int32 {
	if i := uint(dst - c.dstLo); i < uint(len(c.byDst)) {
		return c.byDst[i]
	}
	return -1
}

// WatchesRoutes implements netsim.RouteFilter. The full record needs every
// route change; a compact collector only counts them, except those toward
// a flow's receiver, which re-sample that flow's forwarding walk — and the
// walk reads no entry for any other destination.
func (c *Collector) WatchesRoutes(dst netsim.NodeID) bool {
	return !c.compact || c.flowTo(dst) >= 0
}

// RoutesElided implements netsim.RouteFilter: n route changes happened
// without a RouteChanged call, the latest of them at time last.
func (c *Collector) RoutesElided(n int, last time.Duration) {
	c.routeChangeN += n
	if last > c.lastRouteChange {
		c.lastRouteChange = last
	}
}

// NumRouteChanges returns the number of route changes observed, in either
// mode.
func (c *Collector) NumRouteChanges() int { return c.routeChangeN }

// SetNetwork binds the collector to the network it observes, whose nodes
// must all exist. Required before any event fires, because path sampling
// walks the network's forwarding tables.
func (c *Collector) SetNetwork(n *netsim.Network) {
	c.net = n
	if !c.compact {
		c.firstChange = make([]time.Duration, n.Len())
		c.lastChange = make([]time.Duration, n.Len())
		for i := range c.firstChange {
			c.firstChange[i] = -1
		}
	}
}

// Network returns the observed network (nil before SetNetwork), so that a
// trace's reader can inspect the end-of-run link and forwarding state.
func (c *Collector) Network() *netsim.Network { return c.net }

// Timeline returns the committed record stream: trial_start, then every
// instant's FIB changes and notes in canonical order, then (after Finish)
// the convergence summary. It is nil for a compact collector.
func (c *Collector) Timeline() *obs.Timeline { return c.tl }

// advance opens the instant at, committing the open one if at begins a
// new instant.
func (c *Collector) advance(at time.Duration) {
	if c.open && at != c.at {
		c.commit()
	}
	c.open, c.at = true, at
}

// RouteChanged implements netsim.Observer.
func (c *Collector) RouteChanged(at time.Duration, node, dst, nextHop netsim.NodeID, removed bool) {
	c.advance(at)
	c.routeChangeN++
	c.lastRouteChange = at
	if !c.compact {
		if at >= c.failAt {
			if c.firstChange[node] < 0 {
				c.firstChange[node] = at
			}
			c.lastChange[node] = at
		}
		r := obs.Record{At: at, Kind: obs.KindFIBChange, Node: int32(node), Peer: int32(nextHop), Dst: int32(dst)}
		if removed {
			r.Kind, r.Peer = obs.KindFIBRemove, -1
		}
		c.pend = append(c.pend, r)
	}
	if i := c.flowTo(dst); i >= 0 && c.net != nil {
		// Walk now — the forwarding tables hold this instant's state — but
		// commit only the instant's last walk. The walk reads nothing but
		// each node's entry for dst, and same-instant writes to one
		// (node, dst) entry keep their order, so the instant's final walk
		// is independent of how same-instant changes interleaved.
		f := c.flows[i]
		f.walk, f.walkOK = c.net.WalkPath(f.walk, f.Src, f.Dst)
		f.walked = true
	}
}

// Note implements netsim.Observer. Notes join the record stream in full
// mode; a compact collector ignores them.
func (c *Collector) Note(r obs.Record) {
	if c.compact {
		return
	}
	c.advance(r.At)
	c.pend = append(c.pend, r)
}

// PacketDelivered implements netsim.Observer: a data packet for a flow's
// receiver becomes one of that flow's deliveries in full mode, and is
// folded into Arrivals if the flow is the primary one.
func (c *Collector) PacketDelivered(at time.Duration, pkt *netsim.Packet) {
	i := c.flowTo(pkt.Dst)
	if i < 0 {
		return
	}
	delay := at - pkt.Created
	if f := c.flows[i]; !c.compact {
		f.Deliveries = append(f.Deliveries, Delivery{At: at, Delay: delay, Hops: pkt.HopCount, Looped: Looped(pkt)})
	}
	if i > 0 {
		return
	}
	a := &c.Arrivals
	a.PerSecond.Add(at, delay.Seconds())
	if at >= c.failAt {
		a.PostFail = append(a.PostFail, delay.Seconds())
		if Looped(pkt) {
			a.LoopEscapes++
		}
	}
}

// PacketDropped implements netsim.Observer. A data drop is recorded for the
// flow whose receiver the packet was sent to (other data packets are
// ignored); a control drop is recorded once, in ControlDrops.
func (c *Collector) PacketDropped(at time.Duration, where netsim.NodeID, pkt *netsim.Packet, reason netsim.DropReason) {
	i := int32(-1)
	if !pkt.Control() {
		if i = c.flowTo(pkt.Dst); i < 0 {
			return
		}
	}
	c.advance(at)
	c.pendDrop = append(c.pendDrop, flowDrop{flow: i, Drop: Drop{At: at, Where: where, Reason: reason}})
}

// commit commits the open instant: its records' net effect to the stream,
// its drops to their flows, and each flow's last walk as a path sample (if
// it differs from the last one recorded).
func (c *Collector) commit() {
	c.open = false
	if len(c.pend) > 0 {
		c.commitRecords()
	}
	if len(c.pendDrop) > 0 {
		slices.SortFunc(c.pendDrop, func(a, b flowDrop) int {
			return cmp.Or(cmp.Compare(a.flow, b.flow), cmp.Compare(a.Where, b.Where), cmp.Compare(a.Reason, b.Reason))
		})
		for _, d := range c.pendDrop {
			if d.flow < 0 {
				c.ControlDrops = append(c.ControlDrops, d.Drop)
			} else {
				f := c.flows[d.flow]
				f.Drops = append(f.Drops, d.Drop)
			}
		}
		c.pendDrop = c.pendDrop[:0]
	}
	for _, f := range c.flows {
		f.commitWalk(c.at)
	}
}

// commitRecords appends the open instant's records to the stream: each
// forwarding entry's net change, and every note, sorted by content.
//
// Net-effect reduction — keeping only entries whose end-of-instant value
// differs from their start-of-instant value — is what makes the record
// engine-invariant: same-instant protocol work (e.g. a link-state node
// recomputing once per simultaneous LSA arrival) passes through
// order-dependent intermediate states, but its final state depends only
// on what arrived, not the arrival order.
func (c *Collector) commitRecords() {
	if c.shadow == nil {
		c.shadow = make(map[uint64]int32)
		c.lastIdx = make(map[uint64]int)
	}
	entry := func(r *obs.Record) uint64 { return uint64(uint32(r.Node))<<32 | uint64(uint32(r.Dst)) }
	for i := range c.pend {
		if r := &c.pend[i]; isFIB(r.Kind) {
			c.lastIdx[entry(r)] = i
		}
	}
	kept := c.pend[:0]
	for i, r := range c.pend {
		if isFIB(r.Kind) {
			key := entry(&r)
			if c.lastIdx[key] != i {
				continue // a later same-instant write to this entry wins
			}
			delete(c.lastIdx, key)
			old, ok := c.shadow[key]
			if !ok {
				old = -1
			}
			if r.Peer == old {
				continue // net-zero churn within the instant
			}
			c.shadow[key] = r.Peer
		}
		kept = append(kept, r)
	}
	slices.SortFunc(kept, compareRecords)
	c.tl.Append(kept...)
	c.pend = c.pend[:0]
}

func isFIB(k obs.Kind) bool { return k == obs.KindFIBChange || k == obs.KindFIBRemove }

// compareRecords orders one instant's records by content: kind (a FIB
// change and a removal rank alike, so FIB records order by node and then
// destination), node, destination, peer, rate.
func compareRecords(a, b obs.Record) int {
	rank := func(k obs.Kind) obs.Kind {
		if k == obs.KindFIBRemove {
			return obs.KindFIBChange
		}
		return k
	}
	return cmp.Or(cmp.Compare(rank(a.Kind), rank(b.Kind)), cmp.Compare(a.Node, b.Node),
		cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Peer, b.Peer), cmp.Compare(a.Kind, b.Kind),
		cmp.Compare(a.Rate, b.Rate))
}

// flush commits the open instant.
func (c *Collector) flush() {
	if c.open {
		c.commit()
	}
}

// Finish ends the trial's record: it commits the last instant and, in full
// mode, closes the stream with the convergence summary measured from the
// configured failure — per node that changed its FIB at or after it, in
// ascending node order, a fib_first_change and a fib_last_change record,
// then one convergence_complete record at the last change anywhere. Call
// it once, after the simulation ends.
func (c *Collector) Finish() {
	c.flush()
	if c.compact {
		return
	}
	for n, first := range c.firstChange {
		if first >= 0 {
			c.tl.Append(
				obs.Record{At: first, Kind: obs.KindFirstFIBChange, Node: int32(n), Peer: -1, Dst: -1},
				obs.Record{At: c.lastChange[n], Kind: obs.KindLastFIBChange, Node: int32(n), Peer: -1, Dst: -1})
		}
	}
	if last, ok := c.lastChangeSince(c.failAt); ok {
		c.tl.Append(obs.Record{At: last, Kind: obs.KindConvergenceComplete, Node: -1, Peer: -1, Dst: -1})
	}
}

// SamplePath records every flow's current forwarding walk, for each one
// that differs from its last recorded sample. Call it at moments the walk
// can change without a route-change event (e.g. at failure injection). The
// instant's walks so far are committed first, so each flow's record stays
// in time order.
func (c *Collector) SamplePath() {
	if c.net == nil {
		return
	}
	now := c.net.Sim().Now()
	c.advance(now)
	for _, f := range c.flows {
		f.commitWalk(now)
		f.walk, f.walkOK = c.net.WalkPath(f.walk, f.Src, f.Dst)
		f.commitSample(now, f.walk, f.walkOK)
	}
}

// commitWalk commits the open instant's last walk, if any, at time at.
func (f *Flow) commitWalk(at time.Duration) {
	if f.walked {
		f.walked = false
		f.commitSample(at, f.walk, f.walkOK)
	}
}

// commitSample appends the walk as a path sample at time at, unless it
// matches the last recorded sample.
func (f *Flow) commitSample(at time.Duration, path []netsim.NodeID, ok bool) {
	if n := len(f.PathHistory); n > 0 && f.PathHistory[n-1].OK == ok && slices.Equal(f.PathHistory[n-1].Path, path) {
		return
	}
	f.PathHistory = append(f.PathHistory, PathSample{At: at, Path: slices.Clone(path), OK: ok})
}

// lastChangeSince returns the time of the last route change anywhere,
// and whether there was one at or after failAt.
func (c *Collector) lastChangeSince(failAt time.Duration) (time.Duration, bool) {
	// Simulation time is monotone, so the overall last change is after
	// failAt exactly when it is the last change ≥ failAt. The raw stream
	// counts in full mode too: the record stream holds each instant's net
	// effect, which may omit the final (net-zero) churn.
	return c.lastRouteChange, c.routeChangeN > 0 && c.lastRouteChange >= failAt
}

// RoutingConvergence returns the network routing convergence time after a
// failure at failAt: the time from failAt to the last routing table change
// anywhere in the network. It returns 0 when nothing changed after failAt.
func (c *Collector) RoutingConvergence(failAt time.Duration) time.Duration {
	if last, ok := c.lastChangeSince(failAt); ok {
		return last - failAt
	}
	return 0
}

// ForwardingConvergence returns the forwarding path convergence delay after
// a failure at failAt: the time from failAt until the flow's walk last
// changed. It returns 0 when the walk never changed after failAt.
func (f *Flow) ForwardingConvergence(failAt time.Duration) time.Duration {
	var last time.Duration
	for _, ps := range f.PathHistory {
		if ps.At >= failAt && ps.At > last {
			last = ps.At
		}
	}
	if last == 0 {
		return 0
	}
	return last - failAt
}

// TransientPaths returns the number of distinct forwarding walks observed
// in (failAt, ∞), i.e. how many intermediate paths the flow crossed before
// settling (§2: "number of transient forwarding paths").
func (f *Flow) TransientPaths(failAt time.Duration) int {
	n := 0
	for _, ps := range f.PathHistory {
		if ps.At > failAt {
			n++
		}
	}
	return n
}

// LoopEscapes counts deliveries at or after t whose packets had crossed a
// forwarding loop. It reads the full-mode delivery list and requires the
// network to record hops.
func (f *Flow) LoopEscapes(t time.Duration) int {
	n := 0
	for _, d := range f.Deliveries {
		if d.At >= t && d.Looped {
			n++
		}
	}
	return n
}

// DataDropsAfter counts the flow's drops with the given reason at or after
// t.
func (f *Flow) DataDropsAfter(t time.Duration, reason netsim.DropReason) int {
	n := 0
	for _, d := range f.Drops {
		if d.At >= t && d.Reason == reason {
			n++
		}
	}
	return n
}
