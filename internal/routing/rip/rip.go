// Package rip implements the RIP routing protocol of the paper's §3
// (RFC 2453 behaviour): periodic full-table updates every 30 s, a 180 s
// route timeout, split horizon with poisoned reverse, damped triggered
// updates, and an infinity metric of 16.
//
// RIP keeps only the best route per destination and discards reachability
// information heard from other neighbors, which is what gives it the long
// path switch-over period of §4.1: after a failure it must wait for a
// neighbor's next periodic update to learn an alternate path.
//
// The table, staging and broadcasts are the shared routing.Vector core;
// this package holds what is RIP's own: the RFC 2453 §3.9.2 entry rule,
// the via-list whole-chunk skip, route expiry and garbage collection, and
// a LinkDown that poisons every route through the lost neighbor.
package rip

import (
	"math"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
)

// noDeadline marks a table with no pending expire/gc deadline at all.
const noDeadline = uint32(math.MaxUint32)

// viaCap bounds the cached per-neighbor list of destinations routed via
// that neighbor. The whole-chunk skip must keep refreshing exactly those
// routes' timeouts; past the cap the skip is disabled for the neighbor.
const viaCap = 4

const (
	viaUnknown = int8(-2) // list not yet resolved (deferred to first use)
	viaMany    = int8(-1) // more than viaCap routes via the neighbor
)

// nbrSeen records, per neighbor, the advertisement version whose full
// snapshot we last processed to quiescence, our own change clock at that
// moment, and the destinations then routed via the neighbor. Together they
// justify the receive-side fast path: if the neighbor re-advertises at the
// same version and our table has not changed since, re-processing every
// entry would repeat decisions that were no-ops — except the timeout
// refresh of the listed via-routes, which the skip applies directly.
type nbrSeen struct {
	ver  uint64 // sender's version clock of the last incorporated full
	tv   uint64 // our change clock when that incorporation finished
	nvia int8
	via  [viaCap]routing.NodeID // routed via the neighbor (excluding itself)
}

// Protocol is a RIP speaker bound to one node. The embedded
// routing.Vector holds the table and sends every advertisement; each row's
// Deadline is the housekeeping tick of the route's expiry while reachable
// and of its deletion while not.
type Protocol struct {
	routing.Vector
	// seen holds the per-neighbor incorporation watermarks for the skip.
	seen map[routing.NodeID]nbrSeen
	// nextDeadline is a lower bound on the earliest expire/gc deadline tick
	// in the table (0 = unknown, scan to find out), letting housekeep skip
	// its full scan on the overwhelmingly common tick where nothing can
	// expire.
	nextDeadline uint32
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a RIP instance for the node. It must be attached with
// node.AttachProtocol before the network starts.
func New(node *netsim.Node, cfg routing.VectorConfig) *Protocol {
	p := &Protocol{seen: make(map[routing.NodeID]nbrSeen)}
	p.Init(node, cfg, p.housekeep)
	return p
}

// Factory returns a constructor suitable for attaching RIP to every node of
// a network.
func Factory(cfg routing.VectorConfig) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// noteDeadline lowers the housekeeping deadline bound to tick d.
func (p *Protocol) noteDeadline(d uint32) {
	if p.nextDeadline == 0 || d < p.nextDeadline {
		p.nextDeadline = d
	}
}

// HandleMessage implements netsim.Protocol.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*routing.VectorUpdate)
	if !ok {
		return // not a RIP message; ignore
	}
	met := p.Node.Metrics()
	met.Inc(obs.ProtoUpdatesReceived)
	n := u.Len()
	met.Add(obs.ProtoDecisionRuns, uint64(n))
	hop := p.HopOf(from)
	expire := p.TickAfter(p.Cfg.Timeout)
	b := u.Burst()
	if b != nil {
		// Whole-chunk skip: the sender re-advertises a snapshot version we
		// already processed to quiescence, and our own table has not
		// changed since — every entry decision would repeat its earlier
		// no-op. The only live effect, the timeout refresh of routes via
		// the sender, is applied directly from the cached via-list.
		if ns, ok := p.seen[from]; ok && b.Ver <= ns.ver && p.Ver == ns.tv {
			if ns.nvia == viaUnknown {
				// The table is bit-identical to when the watermark was
				// recorded (our clock has not moved), so resolving the
				// via-list lazily here is exact — and start-of-run fulls
				// that are never re-sent never pay the table scan.
				ns = p.resolveVia(from, hop, ns)
				p.seen[from] = ns
			}
			if ns.nvia >= 0 {
				for i := int8(0); i < ns.nvia; i++ {
					p.refreshVia(u, hop, ns.via[i], expire)
				}
				p.refreshVia(u, hop, from, expire)
				met.Add(obs.ProtoAdvSkipped, uint64(n))
				return
			}
		}
	}
	changedAny := false
	// View iteration keeps the hot loop free of per-entry call overhead;
	// the read-time poisoned reverse EntryAt applies is inlined here (nhs
	// is nil for explicit updates, which carry literal entries).
	ents, nhs, origin, binf := u.View()
	self := p.Node.ID()
	for i, e := range ents {
		if nhs != nil && nhs[i] == self && e.Dst != origin {
			e.Metric = binf
		}
		// Fast no-op rejection: an entry that is not from the current next
		// hop and does not beat the current metric changes nothing (§3.9.2
		// leaves the route untouched). On a converging large network the
		// bulk of received entries land here, so skipping the full decision
		// is the dominant receive-side saving.
		if uint(e.Dst) >= uint(len(p.Rows)) {
			continue // outside the network
		}
		if rt := &p.Rows[e.Dst]; rt.Valid() && hop != rt.Hop {
			metric := e.Metric + 1
			if metric > p.Inf {
				metric = p.Inf
			}
			if metric >= int32(rt.Metric) {
				continue
			}
		}
		if p.processEntry(from, hop, e, expire) {
			changedAny = true
		}
	}
	if b != nil && b.Full && u.LastChunk() {
		// The sender's whole table at b.Ver is now incorporated. The
		// via-list resolves lazily on the first skip attempt.
		p.seen[from] = nbrSeen{ver: b.Ver, tv: p.Ver, nvia: viaUnknown}
	}
	if changedAny {
		p.Adv.RouteChanged()
	}
}

// resolveVia scans the table for destinations routed via the neighbor
// from, whose Hop is hop (excluding the neighbor itself), filling the
// watermark's via-list or marking it over-cap.
func (p *Protocol) resolveVia(from routing.NodeID, hop routing.Hop, ns nbrSeen) nbrSeen {
	ns.nvia = 0
	for dst := routing.NodeID(0); int(dst) < len(p.Rows); dst++ {
		if p.Rows[dst].Hop != hop || dst == from {
			continue // an empty row's Hop matches no neighbor
		}
		if ns.nvia == viaCap {
			ns.nvia = viaMany
			break
		}
		ns.via[ns.nvia] = dst
		ns.nvia++
	}
	return ns
}

// refreshVia re-arms the timeout of the route to dst (next hop: the
// sending neighbor, hop) exactly as full processing of this chunk would:
// if the chunk carries dst at a finite metric, the deadline resets to
// expire. Entries are sorted by destination, so a binary search finds the
// slot.
func (p *Protocol) refreshVia(u *routing.VectorUpdate, hop routing.Hop, dst routing.NodeID, expire uint32) {
	lo, hi := 0, u.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if u.EntryAt(mid).Dst < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= u.Len() {
		return
	}
	e := u.EntryAt(lo)
	if e.Dst != dst {
		return
	}
	metric := e.Metric + 1
	if metric > p.Inf {
		metric = p.Inf
	}
	if metric >= p.Inf {
		return // poisoned or unreachable: processing would not refresh
	}
	rt := p.Live(dst)
	if rt == nil || rt.Hop != hop || int32(rt.Metric) >= p.Inf {
		return
	}
	rt.Deadline = expire
	p.noteDeadline(expire)
}

// processEntry applies one received (dst, metric) pair from neighbor from,
// whose Hop is hop, per RFC 2453 §3.9.2 and reports whether the route
// changed. expire is the timeout tick of a route refreshed now.
func (p *Protocol) processEntry(from routing.NodeID, hop routing.Hop, e routing.VectorEntry, expire uint32) bool {
	if e.Dst == p.Node.ID() {
		return false
	}
	metric := e.Metric + 1 // link cost is 1 everywhere in the study
	if metric > p.Inf {
		metric = p.Inf
	}
	rt := p.Live(e.Dst)
	switch {
	case rt == nil:
		if metric >= p.Inf {
			return false
		}
		rt = p.Insert(e.Dst, hop)
		rt.Metric, rt.Deadline = int16(metric), expire
		p.SetChanged(e.Dst)
		p.noteDeadline(expire)
		p.Node.SetRoute(e.Dst, from)
		return true

	case hop == rt.Hop:
		// News from the current next hop is always believed, even if worse.
		if metric < p.Inf {
			rt.Deadline = expire
			p.noteDeadline(expire)
		}
		if metric == int32(rt.Metric) {
			return false
		}
		wasReachable := int32(rt.Metric) < p.Inf
		rt.Metric = int16(metric)
		p.SetChanged(e.Dst)
		if metric >= p.Inf {
			if wasReachable {
				rt.Deadline = p.TickAfter(p.Cfg.GCTime)
				p.noteDeadline(rt.Deadline)
				p.Node.ClearRoute(e.Dst)
			}
		} else {
			// The route may be coming back from unreachable via the same
			// next hop; (re)install the forwarding entry either way.
			p.Node.SetRoute(e.Dst, from)
		}
		return true

	case metric < int32(rt.Metric):
		rt.Metric = int16(metric)
		rt.Hop = hop
		rt.Deadline = expire
		p.SetChanged(e.Dst)
		p.noteDeadline(expire)
		p.Node.SetRoute(e.Dst, from)
		return true
	}
	return false
}

// LinkDown implements netsim.Protocol: every route through the lost
// neighbor becomes unreachable until some other neighbor advertises an
// alternative (RIP keeps no alternates — §4.1).
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	p.Up[neighbor] = false
	hop := p.HopOf(neighbor)
	gc := p.TickAfter(p.Cfg.GCTime)
	changedAny := false
	for dst := routing.NodeID(0); int(dst) < len(p.Rows); dst++ {
		rt := &p.Rows[dst]
		if rt.Hop != hop || int32(rt.Metric) >= p.Inf {
			continue // an empty row's Hop matches no neighbor
		}
		rt.Metric = int16(p.Inf)
		rt.Deadline = gc
		p.SetChanged(dst)
		p.noteDeadline(gc)
		p.Node.ClearRoute(dst)
		changedAny = true
	}
	if changedAny {
		p.Adv.RouteChanged()
	}
}

// housekeep expires timed-out routes and garbage-collects dead ones,
// comparing tick indices only: a deadline is due at the first housekeeping
// tick at or after its instant (routing.Vector.TickAfter). The full scan
// runs only when the earliest tracked deadline is due; otherwise the tick
// is O(1) — on a quiet tick (the overwhelmingly common case) nothing could
// have expired, so skipping the scan changes nothing.
func (p *Protocol) housekeep() {
	tick := p.Tick()
	if p.nextDeadline != 0 && tick < p.nextDeadline {
		return
	}
	gc := p.TickAfter(p.Cfg.GCTime)
	changedAny := false
	next := noDeadline
	self := p.Node.ID()
	for dst := routing.NodeID(0); int(dst) < len(p.Rows); dst++ {
		rt := &p.Rows[dst]
		if !rt.Valid() || dst == self {
			continue
		}
		if int32(rt.Metric) < p.Inf && tick >= rt.Deadline {
			rt.Metric = int16(p.Inf)
			rt.Deadline = gc
			p.SetChanged(dst)
			p.Node.ClearRoute(dst)
			changedAny = true
		}
		if int32(rt.Metric) >= p.Inf && rt.Deadline > 0 && tick >= rt.Deadline {
			p.Delete(dst)
			continue
		}
		// Track the surviving entry's next deadline for the skip bound.
		if rt.Deadline > 0 && rt.Deadline < next {
			next = rt.Deadline
		}
	}
	p.nextDeadline = next
	if changedAny {
		p.Adv.RouteChanged()
	}
}
