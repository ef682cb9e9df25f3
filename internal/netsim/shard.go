package netsim

import (
	"fmt"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// This file implements sharded (parallel-in-one-trial) execution with
// conservative time synchronization. The topology is partitioned into K
// shards; each shard's nodes run their events on a private simulator
// driven by its own goroutine, while the original simulator (the "control
// sim") keeps the harness events — failure injection, detection timers,
// fluid-engine ticks. The link propagation delay is the lookahead: a
// packet finishing serialization at time t cannot affect another shard
// before t+LinkDelay, so all shards can safely run the window
// [T, T') in parallel whenever T' ≤ min(next pending event) + LinkDelay.
// At each window barrier the coordinator replays buffered observer
// events, releases cross-shard pooled messages, drains cross-shard
// packet inboxes in deterministic (timestamp, shard, FIFO) order, and
// runs the control events due at the barrier instant. See DESIGN.md
// ("Sharded execution") for the full protocol and ordering argument.

// exec is the execution context one node's events run against: the event
// loop, packet counters, observer buffers, and cross-shard buffers of the
// shard that owns the node. In sequential mode there is a single root exec
// (id -1) running on the Network's own simulator and counting into the
// Network's counter set, so the default path is bit-for-bit the
// pre-sharding behavior.
type exec struct {
	id  int32
	net *Network
	sim *sim.Simulator
	// met is the context's counter set: the network's on the root exec, a
	// private one per shard, absorbed into the root set at FinishSharding.
	met *obs.Metrics
	// nextID is the packet ID sequence. Per-shard spaces overlap; nothing
	// semantic reads Packet.ID.
	nextID uint64
	// pktFree is the context's Packet free list: packets whose flight ended
	// here (delivered, consumed by a protocol, or dropped), zeroed and ready
	// for the next send. Only the goroutine running the context touches it.
	pktFree []*Packet
	// serCache memoizes serialization delay per shard so shards never
	// write shared memory mid-window.
	serCache []time.Duration
	// msgPool is the routing layer's free lists for pooled messages whose
	// sender lives in this context (see Node.MessagePool); netsim only
	// stores it.
	msgPool any
	// routes and pkts buffer observer callbacks raised during a window
	// (routes also holds notes), replayed by the coordinator at the
	// barrier in merged (at, shard, seq) order (cursors routeAt, pktAt).
	// Root exec calls the observer directly.
	routes         []routeEvent
	pkts           []pktEvent
	routeAt, pktAt int
	// watch[dst] marks the destinations whose route changes the observer
	// needs one by one (nil: all, see RouteFilter). The rest are only
	// counted: elided of them this window, the latest at elidedAt.
	watch    []bool
	elided   int
	elidedAt time.Duration
	// outbox[d] holds packets that finished serialization here but arrive
	// on shard d; the coordinator drains them at the barrier.
	outbox [][]crossMsg
	// releases holds pooled messages whose owner lives on another shard;
	// released at the barrier while all shards are parked.
	releases []PooledMessage
	// dirty holds FIB changes awaiting a fluid-engine settle at the
	// barrier (the FlowSet only ever runs on the coordinator).
	dirty []dirtyRoute
}

// dirtyRoute is one deferred fluid-engine settle: node's entry for dst
// changed during a window.
type dirtyRoute struct {
	node, dst NodeID
}

// crossMsg is one packet crossing a shard boundary: it arrives on port
// p's peer (in another shard) at time at.
type crossMsg struct {
	at  time.Duration
	p   *port
	pkt *Packet
}

// routeEvent is one buffered RouteChanged or Note callback, 32 bytes. prev,
// the entry's previous next hop, lets the barrier replay rewind the FIBs to
// their start-of-window state and step them forward change by change, so
// observers that walk forwarding tables (path sampling) see the intermediate
// states a sequential run would have. seq is the event's position among its
// shard's buffered events, route and packet, in execution order. A note
// (note set) keeps its record's Kind, Node, Peer (in nh) and Dst: only
// Node.Note raises notes in a window, and those carry no Seed or Rate.
type routeEvent struct {
	at      time.Duration
	node    NodeID
	dst     NodeID
	nh      NodeID
	prev    NodeID // the entry's value before the change
	seq     uint32
	removed bool
	note    bool
	kind    obs.Kind
}

// pktEvent is one buffered PacketDelivered or PacketDropped callback
// (reason 0: delivered). The packet is snapshotted by value: a dropped
// control packet's pooled payload may be recycled before the replay, but the
// scalar fields observers read stay intact.
type pktEvent struct {
	at     time.Duration
	seq    uint32
	reason DropReason
	where  NodeID // dropped: the losing node
	pkt    Packet
}

// obsRef locates one buffered observer event: shard index and position in
// that shard's routes (or, when pkt is set, pkts). The barrier replay
// materializes the k-way merge as a slice of refs so it can walk the
// window's events in both directions.
type obsRef struct {
	shard, idx int32
	pkt        bool
}

// ctx returns the execution context for an action on the node right now:
// the node's shard while a window is running, the root context while the
// coordinator (or a sequential run) is executing. windowActive is only
// flipped by the coordinator while all workers are parked, so the read is
// ordered by the barrier channels.
func (nd *Node) ctx() *exec {
	if nd.net.windowActive {
		return nd.exec
	}
	return nd.net.root
}

// pktFreeMax bounds a context's free list. A shard that only ever receives
// a flow recycles packets another shard allocated; past the bound they are
// left to the garbage collector instead of accumulating.
const pktFreeMax = 4096

// newPacket returns a zeroed packet, from the free list when it has one,
// stamped with the context's next ID and the current time.
func (ex *exec) newPacket() *Packet {
	var pkt *Packet
	if n := len(ex.pktFree); n > 0 {
		pkt = ex.pktFree[n-1]
		ex.pktFree = ex.pktFree[:n-1]
	} else {
		pkt = new(Packet)
	}
	pkt.ID = ex.nextID
	ex.nextID++
	pkt.Created = ex.sim.Now()
	return pkt
}

// recycle ends a packet's life: called once its flight is over, after the
// observer callbacks and the payload's release. The struct is zeroed, so
// the hop trace's storage is dropped, not reused — the by-value snapshots
// buffered for a barrier replay (pktEvent) keep theirs.
func (ex *exec) recycle(pkt *Packet) {
	*pkt = Packet{}
	if len(ex.pktFree) < pktFreeMax {
		ex.pktFree = append(ex.pktFree, pkt)
	}
}

// serialization returns the time to clock size bytes onto a link,
// memoized per size in this exec's private cache.
func (ex *exec) serialization(size int) time.Duration {
	if size >= 0 && size < len(ex.serCache) {
		if d := ex.serCache[size]; d != 0 {
			return d
		}
	}
	d := time.Duration(int64(size) * 8 * int64(time.Second) / ex.net.cfg.LinkRateBps)
	if size >= 0 && size < serCacheMax {
		if size >= len(ex.serCache) {
			// Doubling, so a run of new maxima does not re-copy the table
			// for each; never straight to the cap, which most trials stay
			// far below.
			grown := make([]time.Duration, min(max(size+1, 2*len(ex.serCache)), serCacheMax))
			copy(grown, ex.serCache)
			ex.serCache = grown
		}
		ex.serCache[size] = d
	}
	return d
}

// routeChanged raises, buffers or just counts the RouteChanged callback.
// prev is the FIB entry's value before the change (noRoute if absent),
// recorded for the barrier replay's rewind; the root context ignores it.
func (ex *exec) routeChanged(at time.Duration, node, dst, nextHop, prev NodeID, removed bool) {
	if ex.id < 0 {
		ex.net.observer.RouteChanged(at, node, dst, nextHop, removed)
		return
	}
	if ex.watch != nil && !ex.watch[dst] {
		ex.elided++
		ex.elidedAt = at // a shard's clock never runs backwards
		return
	}
	ex.routes = append(ex.routes, routeEvent{at: at, node: node, dst: dst, nh: nextHop, prev: prev, seq: uint32(len(ex.routes) + len(ex.pkts)), removed: removed})
}

// note raises or buffers the Note observer callback. Notes are never
// elided: the route filter speaks only for FIB changes.
func (ex *exec) note(r obs.Record) {
	if ex.id < 0 {
		ex.net.observer.Note(r)
		return
	}
	ex.routes = append(ex.routes, routeEvent{at: r.At, node: NodeID(r.Node), dst: NodeID(r.Dst), nh: NodeID(r.Peer), seq: uint32(len(ex.routes) + len(ex.pkts)), note: true, kind: r.Kind})
}

// packetDelivered raises or buffers the PacketDelivered observer callback.
func (ex *exec) packetDelivered(at time.Duration, pkt *Packet) {
	if ex.id < 0 {
		ex.net.observer.PacketDelivered(at, pkt)
		return
	}
	ex.pkts = append(ex.pkts, pktEvent{at: at, seq: uint32(len(ex.routes) + len(ex.pkts)), pkt: *pkt})
}

// packetDropped raises or buffers the PacketDropped observer callback.
func (ex *exec) packetDropped(at time.Duration, where NodeID, pkt *Packet, reason DropReason) {
	if ex.id < 0 {
		ex.net.observer.PacketDropped(at, where, pkt, reason)
		return
	}
	ex.pkts = append(ex.pkts, pktEvent{at: at, seq: uint32(len(ex.routes) + len(ex.pkts)), reason: reason, where: where, pkt: *pkt})
}

// head returns the time of the shard's next unreplayed buffered event, and
// whether it is a packet event.
func (ex *exec) head() (at time.Duration, pkt, ok bool) {
	r, p := ex.routeAt < len(ex.routes), ex.pktAt < len(ex.pkts)
	switch {
	case r && (!p || ex.routes[ex.routeAt].seq < ex.pkts[ex.pktAt].seq):
		return ex.routes[ex.routeAt].at, false, true
	case p:
		return ex.pkts[ex.pktAt].at, true, true
	}
	return 0, false, false
}

// releasePooled returns a packet's pooled payload to its owner's free
// list — immediately when the owner's shard is the executing one (or in
// any coordinator/sequential context), otherwise at the next barrier.
func (ex *exec) releasePooled(pkt *Packet) {
	pm, ok := pkt.Payload.(PooledMessage)
	if !ok {
		return
	}
	if ex.id >= 0 && ex.net.assign[pkt.Src] != ex.id {
		ex.releases = append(ex.releases, pm)
		return
	}
	pm.Release()
}

// EnableSharding switches the network to sharded execution: assign maps
// every node to a shard in [0, k), each shard gets a private simulator
// (seeded identically to the control sim, so per-node random streams
// derive the same sequences), and a coordinator goroutine pool is
// started. Call before protocols are attached —
// protocols capture their node's simulator at construction.
func (n *Network) EnableSharding(assign []int32, k int) {
	if n.started {
		panic("netsim: EnableSharding after Start")
	}
	if len(assign) != len(n.nodes) {
		panic(fmt.Sprintf("netsim: EnableSharding: %d assignments for %d nodes", len(assign), len(n.nodes)))
	}
	if k < 1 {
		panic("netsim: EnableSharding with no shards")
	}
	n.assign = assign
	n.shards = make([]*exec, k)
	sims := make([]*sim.Simulator, k)
	for i := 0; i < k; i++ {
		sims[i] = sim.New(n.sim.Seed())
		ex := &exec{
			id:     int32(i),
			net:    n,
			sim:    sims[i],
			met:    obs.NewMetrics(),
			outbox: make([][]crossMsg, k),
		}
		n.shards[i] = ex
	}
	for _, nd := range n.nodes {
		s := assign[nd.id]
		if s < 0 || int(s) >= k {
			panic(fmt.Sprintf("netsim: node %d assigned to shard %d of %d", nd.id, s, k))
		}
		nd.exec = n.shards[s]
	}
	if f, ok := n.observer.(RouteFilter); ok {
		// Resolved once into a dense mask: one load per route change.
		watch := make([]bool, len(n.nodes))
		all := true
		for d := range watch {
			watch[d] = f.WatchesRoutes(NodeID(d))
			all = all && watch[d]
		}
		if !all {
			n.filter = f
			for _, ex := range n.shards {
				ex.watch = watch
			}
		}
	}
	n.drainIdx = make([]int, k)
	n.Links() // prebuild the cached link list before goroutines exist
	n.coord = sim.NewCoordinator(sims)
}

// Sharded reports whether the network runs in sharded mode.
func (n *Network) Sharded() bool { return n.coord != nil }

// FiredEvents returns the number of events executed across the control
// simulator and all shard simulators.
func (n *Network) FiredEvents() uint64 {
	total := n.sim.Fired()
	for _, ex := range n.shards {
		total += ex.sim.Fired()
	}
	return total
}

// RunSharded drives the simulation from the current time to end using
// lockstep windows; it replaces the sequential sim.RunUntil(end). The
// window bound is adaptive: T' = min(earliest pending shard event +
// LinkDelay, earliest control event, end), so idle stretches cost one
// barrier instead of one barrier per lookahead.
func (n *Network) RunSharded(end time.Duration) {
	if n.coord == nil {
		panic("netsim: RunSharded without EnableSharding")
	}
	s := n.sim
	la := n.cfg.LinkDelay
	for {
		next := end
		if t, ok := n.coord.MinNextEvent(); ok && t+la < next {
			next = t + la
		}
		if t, ok := s.NextEventTime(); ok && t < next {
			next = t
		}
		if now := s.Now(); next < now {
			next = now
		}
		final := next >= end
		if final {
			next = end
		}
		n.windowActive = true
		if final {
			// Inclusive: shard events at exactly end fire, matching the
			// sequential RunUntil(end).
			n.coord.RunWindowUntil(end)
		} else {
			n.coord.RunWindow(next)
		}
		n.windowActive = false
		n.root.met.Inc(obs.ShardBarrierWaits)
		n.flushWindow(next)
		// Control events at exactly the barrier instant run after the
		// window flush: in the sequential schedule, harness closures,
		// detection timers, and fluid ticks always carry earlier sequence
		// numbers than same-instant node events.
		s.RunUntil(next)
		if final {
			// Control events at end may have raised observer events or
			// deferred work through shard contexts; flush once more.
			n.flushWindow(end)
			return
		}
	}
}

// flushWindow performs the barrier bookkeeping at time t: replay buffered
// observer events in deterministic merged order, release cross-shard
// pooled messages, settle deferred fluid-engine changes, and deliver
// cross-shard packets into their destination shards.
func (n *Network) flushWindow(t time.Duration) {
	n.flushObs()
	n.flushReleases()
	// Advance the control clock (no control events exist strictly below
	// t) so fluid settles timestamp at the barrier instant.
	n.sim.RunBefore(t)
	n.flushDirty()
	n.drainOutboxes()
}

// flushObs replays the window's buffered observer events, then reports in
// bulk the route changes the observer does not watch (counted per shard,
// never buffered); their latest may predate the last replayed event.
func (n *Network) flushObs() {
	n.replayObs()
	if n.filter == nil {
		return
	}
	elided, last := 0, time.Duration(0)
	for _, ex := range n.shards {
		if ex.elided > 0 && ex.elidedAt > last {
			last = ex.elidedAt
		}
		elided += ex.elided
		ex.elided = 0
	}
	if elided > 0 {
		n.filter.RoutesElided(elided, last)
	}
}

// replayObs replays every buffered observer event, k-way merged across
// shards by (time, shard). Within one shard the buffers are already in
// execution order.
//
// Replay is rewind-then-step: the merged sequence is first walked
// backwards restoring each changed FIB entry to its pre-change value, then
// forwards re-applying every change just before its observer callback
// fires (notes touch no FIB entry; both passes step over them). Observers
// that walk forwarding tables (the trace collector's path sampler)
// therefore see the exact intermediate state of every watched
// entry at each event's timestamp — not the end-of-window state the shards
// left behind — and the walk matches a sequential run's, because link
// up/down state only changes at barriers and is constant within the window.
// Unwatched entries keep their end-of-window value; a walk toward a watched
// destination never reads them. The forward pass ends with every entry back
// at its end-of-window value.
func (n *Network) replayObs() {
	n.obsSeq = n.obsSeq[:0]
	for {
		var best *exec
		var bestAt time.Duration
		var bestPkt bool
		for _, ex := range n.shards {
			if at, pkt, ok := ex.head(); ok && (best == nil || at < bestAt) {
				best, bestAt, bestPkt = ex, at, pkt
			}
		}
		if best == nil {
			break
		}
		if bestPkt {
			n.obsSeq = append(n.obsSeq, obsRef{shard: best.id, idx: int32(best.pktAt), pkt: true})
			best.pktAt++
		} else {
			n.obsSeq = append(n.obsSeq, obsRef{shard: best.id, idx: int32(best.routeAt)})
			best.routeAt++
		}
	}
	if len(n.obsSeq) == 0 {
		return
	}
	for i := len(n.obsSeq) - 1; i >= 0; i-- {
		if r := n.obsSeq[i]; !r.pkt {
			if e := &n.shards[r.shard].routes[r.idx]; !e.note {
				nd := n.nodes[e.node]
				nd.fibSet(e.dst, nd.Rank(e.prev))
			}
		}
	}
	for _, r := range n.obsSeq {
		if r.pkt {
			e := &n.shards[r.shard].pkts[r.idx]
			if e.reason == 0 {
				n.observer.PacketDelivered(e.at, &e.pkt)
			} else {
				n.observer.PacketDropped(e.at, e.where, &e.pkt, e.reason)
			}
			continue
		}
		e := &n.shards[r.shard].routes[r.idx]
		if e.note {
			n.observer.Note(obs.Record{At: e.at, Kind: e.kind, Node: int(e.node), Peer: int(e.nh), Dst: int(e.dst)})
			continue
		}
		nd := n.nodes[e.node]
		rank := noPort
		if !e.removed {
			rank = nd.Rank(e.nh)
		}
		nd.fibSet(e.dst, rank)
		n.observer.RouteChanged(e.at, e.node, e.dst, e.nh, e.removed)
	}
	for _, ex := range n.shards {
		// Packet snapshots must not pin payloads or hop traces past the
		// barrier; route events hold no pointers.
		clear(ex.pkts)
		ex.routes, ex.pkts = ex.routes[:0], ex.pkts[:0]
		ex.routeAt, ex.pktAt = 0, 0
	}
}

// flushReleases returns deferred pooled messages to their owners' free
// lists; safe because every shard is parked.
func (n *Network) flushReleases() {
	for _, ex := range n.shards {
		for i, pm := range ex.releases {
			pm.Release()
			ex.releases[i] = nil
		}
		ex.releases = ex.releases[:0]
	}
}

// flushDirty applies deferred fluid-engine settles. The settle runs one
// window after the FIB mutation (attribution error bounded by the
// lookahead); conservation stays exact because the FlowSet accounts
// elapsed time against whatever graph is current.
func (n *Network) flushDirty() {
	if n.flows == nil {
		return
	}
	for _, ex := range n.shards {
		for _, d := range ex.dirty {
			n.flows.fibChanged(d.node, d.dst)
		}
		ex.dirty = ex.dirty[:0]
	}
}

// drainOutboxes schedules every cross-shard packet into its destination
// shard's simulator. For one destination, sources are merged by
// (timestamp, source shard); each source buffer is FIFO and timestamp-
// nondecreasing (fixed LinkDelay on top of time-ordered execution), so
// the merged order — and therefore the destination's event sequence — is
// deterministic regardless of how windows interleaved.
func (n *Network) drainOutboxes() {
	var total uint64
	for d, dst := range n.shards {
		for i := range n.drainIdx {
			n.drainIdx[i] = 0
		}
		for {
			best := -1
			var bestAt time.Duration
			for si, src := range n.shards {
				box := src.outbox[d]
				i := n.drainIdx[si]
				if i >= len(box) {
					continue
				}
				if at := box[i].at; best < 0 || at < bestAt {
					best, bestAt = si, at
				}
			}
			if best < 0 {
				break
			}
			m := &n.shards[best].outbox[d][n.drainIdx[best]]
			n.drainIdx[best]++
			dst.sim.ScheduleHandlerAt(m.at, m.p, portPropDone, m.pkt)
			total++
		}
		for _, src := range n.shards {
			box := src.outbox[d]
			for i := range box {
				box[i] = crossMsg{}
			}
			src.outbox[d] = box[:0]
		}
	}
	n.root.met.Add(obs.ShardCrossMsgs, total)
}

// FinishSharding stops the coordinator goroutines and folds the per-shard
// counter sets into the root set. Call once after
// RunSharded; the network must not run further afterwards.
func (n *Network) FinishSharding() {
	if n.coord == nil {
		return
	}
	n.coord.Stop()
	n.coord = nil
	for _, ex := range n.shards {
		n.root.met.Absorb(ex.met)
	}
	n.shards = nil
	n.assign = nil
	n.filter = nil
	for _, nd := range n.nodes {
		nd.exec = n.root
	}
}
