// Package rip implements the RIP routing protocol of the paper's §3
// (RFC 2453 behaviour): periodic full-table updates every 30 s, a 180 s
// route timeout, split horizon with poisoned reverse, damped triggered
// updates, and an infinity metric of 16.
//
// RIP keeps only the best route per destination and discards reachability
// information heard from other neighbors, which is what gives it the long
// path switch-over period of §4.1: after a failure it must wait for a
// neighbor's next periodic update to learn an alternate path.
package rip

import (
	"math"
	"math/bits"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
)

// housekeepInterval is how often expired routes are scanned for. The scan
// is an implementation detail; any value well under the timeout works.
const housekeepInterval = time.Second

// noDeadline marks a table with no pending expire/gc deadline at all.
const noDeadline = time.Duration(math.MaxInt64)

// route is one RIP table entry, packed to 16 bytes so a dense 10k-node
// table fits in 160 kB and the receive loop's sequential row scans stay
// bandwidth-friendly. The metric is 16 bits (hop counts clamp at the
// configured infinity, 16 by default; New rejects an infinity that would
// not fit), and the timeout and garbage-collection deadlines share one
// field: a reachable route only ever awaits expiry, an unreachable one
// only deletion, so the two are never live at once.
type route struct {
	deadline time.Duration // expiry while reachable, deletion while not
	nextHop  routing.NodeID
	metric   int16
	changed  bool // included in the next triggered update
	valid    bool // slot holds a live entry
}

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

// Protocol is a RIP speaker bound to one node.
type Protocol struct {
	node *netsim.Node
	cfg  routing.VectorConfig
	inf  int32 // cfg.Infinity in the table's metric width
	// table is dense, indexed by destination ID (node IDs are contiguous
	// from 0); invalid slots are absent entries. Ascending index iteration
	// gives the same deterministic order a sorted key list would.
	table []route
	// changedBits mirrors the entries' changed flags, one bit per
	// destination, so a triggered update visits only the changed routes
	// instead of scanning the full table per neighbor — the dominant cost
	// of a converging large network, where each burst touches a handful of
	// the N table entries.
	changedBits []uint64
	// nlive counts valid table slots, giving full-table stagings their
	// exact burst size without a counting pass.
	nlive int
	// ver is the monotone change-version clock: it advances on every
	// decision-relevant table change (route inserted, metric or next hop
	// updated, entry deleted). Advertisement bursts are stamped with it,
	// and received stamps drive the whole-chunk skip below.
	ver uint64
	// seen holds the per-neighbor incorporation watermarks for the skip.
	seen map[routing.NodeID]nbrSeen
	// nextDeadline is a lower bound on the earliest expire/gc deadline in
	// the table (0 = unknown, scan to find out), letting housekeep skip its
	// full scan on the overwhelmingly common tick where nothing can expire.
	nextDeadline time.Duration
	up           map[routing.NodeID]bool
	adv          *routing.Advertiser
	hk           *sim.Timer
	// snd stages advertisement bursts once per broadcast into a shared
	// pooled snapshot; per-neighbor messages are index views with
	// read-time poisoned reverse, so a steady-state broadcast allocates
	// nothing and copies nothing per neighbor.
	snd routing.BurstSender
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a RIP instance for the node. It must be attached with
// node.AttachProtocol before the network starts.
func New(node *netsim.Node, cfg routing.VectorConfig) *Protocol {
	if cfg.Infinity > math.MaxInt16 {
		panic("rip: Infinity exceeds the 16-bit table metric")
	}
	p := &Protocol{
		node: node,
		cfg:  cfg,
		inf:  int32(cfg.Infinity),
		up:   make(map[routing.NodeID]bool),
		seen: make(map[routing.NodeID]nbrSeen),
	}
	p.adv = routing.NewAdvertiser(node, &p.cfg, p.broadcastFull, p.broadcastChanged)
	p.hk = sim.NewTimer(node.Sim(), p.housekeep)
	return p
}

// Factory returns a constructor suitable for attaching RIP to every node of
// a network.
func Factory(cfg routing.VectorConfig) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// Table returns the current metric and next hop for dst, with ok reporting
// whether a route (reachable or not) exists. Exposed for tests and tools.
func (p *Protocol) Table(dst routing.NodeID) (metric int, nextHop routing.NodeID, ok bool) {
	rt := p.route(dst)
	if rt == nil {
		return 0, 0, false
	}
	return int(rt.metric), rt.nextHop, true
}

// route returns the live entry for dst, or nil.
func (p *Protocol) route(dst routing.NodeID) *route {
	if dst >= 0 && int(dst) < len(p.table) && p.table[dst].valid {
		return &p.table[dst]
	}
	return nil
}

// insert claims the slot for dst, growing the table on demand, and returns
// it zeroed with valid set. Start presizes the table to the network, so
// growth here only triggers for unit tests that inject out-of-range IDs;
// it doubles anyway so repeated single-destination growth stays amortized.
func (p *Protocol) insert(dst routing.NodeID) *route {
	if int(dst) >= len(p.table) {
		n := int(dst) + 1
		if n < 2*len(p.table) {
			n = 2 * len(p.table)
		}
		grown := make([]route, n)
		copy(grown, p.table)
		p.table = grown
	}
	p.table[dst] = route{valid: true}
	p.nlive++
	return &p.table[dst]
}

// setChanged flags the entry for the next triggered update, in both the
// entry and the bitmap (the invariant the bitmap iteration relies on:
// changed entries always have their bit set), and advances the version
// clock — every call site is a decision-relevant table change.
func (p *Protocol) setChanged(dst routing.NodeID, rt *route) {
	p.ver++
	rt.changed = true
	w := int(dst) >> 6
	if w >= len(p.changedBits) {
		n := w + 1
		if n < 2*len(p.changedBits) {
			n = 2 * len(p.changedBits)
		}
		grown := make([]uint64, n)
		copy(grown, p.changedBits)
		p.changedBits = grown
	}
	p.changedBits[w] |= 1 << (uint(dst) & 63)
}

// noteDeadline lowers the housekeeping deadline bound to d.
func (p *Protocol) noteDeadline(d time.Duration) {
	if p.nextDeadline == 0 || d < p.nextDeadline {
		p.nextDeadline = d
	}
}

// Start implements netsim.Protocol.
func (p *Protocol) Start() {
	// Node IDs are contiguous from 0, so size the dense table and its
	// changed bitmap to the network up front; growing them one new maximum
	// destination at a time is quadratic memory traffic on a 10k-node
	// graph (the same idiom as ls and bgp).
	if n := p.node.NetworkSize(); n > len(p.table) {
		grown := make([]route, n)
		copy(grown, p.table)
		p.table = grown
		bits := make([]uint64, (n+63)/64)
		copy(bits, p.changedBits)
		p.changedBits = bits
	}
	self := p.node.ID()
	rt := p.insert(self)
	rt.metric, rt.nextHop = 0, self
	for _, n := range p.node.Neighbors() {
		p.up[n] = true
	}
	p.adv.Start()
	p.hk.Reset(housekeepInterval)
	// Announce ourselves right away so the network learns new attachments
	// without waiting a full period.
	p.broadcastFull()
}

// HandleMessage implements netsim.Protocol.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*routing.VectorUpdate)
	if !ok {
		return // not a RIP message; ignore
	}
	met := p.node.Metrics()
	met.Inc(obs.ProtoUpdatesReceived)
	n := u.Len()
	met.Add(obs.ProtoDecisionRuns, uint64(n))
	now := p.node.Sim().Now()
	b := u.Burst()
	if b != nil {
		// Whole-chunk skip: the sender re-advertises a snapshot version we
		// already processed to quiescence, and our own table has not
		// changed since — every entry decision would repeat its earlier
		// no-op. The only live effect, the timeout refresh of routes via
		// the sender, is applied directly from the cached via-list.
		if ns, ok := p.seen[from]; ok && b.Ver <= ns.ver && p.ver == ns.tv {
			if ns.nvia == viaUnknown {
				// The table is bit-identical to when the watermark was
				// recorded (our clock has not moved), so resolving the
				// via-list lazily here is exact — and start-of-run fulls
				// that are never re-sent never pay the table scan.
				ns = p.resolveVia(from, ns)
				p.seen[from] = ns
			}
			if ns.nvia >= 0 {
				for i := int8(0); i < ns.nvia; i++ {
					p.refreshVia(u, from, ns.via[i], now)
				}
				p.refreshVia(u, from, from, now)
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
	self := p.node.ID()
	for i, e := range ents {
		if nhs != nil && nhs[i] == self && e.Dst != origin {
			e.Metric = binf
		}
		// Fast no-op rejection: an entry that is not from the current next
		// hop and does not beat the current metric changes nothing (§3.9.2
		// leaves the route untouched). On a converging large network the
		// bulk of received entries land here, so skipping the full decision
		// is the dominant receive-side saving.
		if int(e.Dst) < len(p.table) && e.Dst >= 0 {
			rt := &p.table[e.Dst]
			if rt.valid && from != rt.nextHop {
				metric := e.Metric + 1
				if metric > p.inf {
					metric = p.inf
				}
				if metric >= int32(rt.metric) {
					continue
				}
			}
		}
		if p.processEntry(from, e, now) {
			changedAny = true
		}
	}
	if b != nil && b.Full && u.LastChunk() {
		// The sender's whole table at b.Ver is now incorporated. The
		// via-list resolves lazily on the first skip attempt.
		p.seen[from] = nbrSeen{ver: b.Ver, tv: p.ver, nvia: viaUnknown}
	}
	if changedAny {
		p.adv.RouteChanged()
	}
}

// resolveVia scans the table for destinations routed via the neighbor
// (excluding the neighbor itself), filling the watermark's via-list or
// marking it over-cap.
func (p *Protocol) resolveVia(from routing.NodeID, ns nbrSeen) nbrSeen {
	ns.nvia = 0
	for dst := routing.NodeID(0); int(dst) < len(p.table); dst++ {
		rt := &p.table[dst]
		if !rt.valid || rt.nextHop != from || dst == from {
			continue
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
// sending neighbor) exactly as full processing of this chunk would: if the
// chunk carries dst at a finite metric, the deadline resets. Entries are
// sorted by destination, so a binary search finds the slot.
func (p *Protocol) refreshVia(u *routing.VectorUpdate, from, dst routing.NodeID, now time.Duration) {
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
	if metric > p.inf {
		metric = p.inf
	}
	if metric >= p.inf {
		return // poisoned or unreachable: processing would not refresh
	}
	rt := p.route(dst)
	if rt == nil || rt.nextHop != from || int32(rt.metric) >= p.inf {
		return
	}
	rt.deadline = now + p.cfg.Timeout
	p.noteDeadline(rt.deadline)
}

// processEntry applies one received (dst, metric) pair per RFC 2453 §3.9.2
// and reports whether the route changed.
func (p *Protocol) processEntry(from routing.NodeID, e routing.VectorEntry, now time.Duration) bool {
	if e.Dst == p.node.ID() {
		return false
	}
	metric := e.Metric + 1 // link cost is 1 everywhere in the study
	if metric > p.inf {
		metric = p.inf
	}
	rt := p.route(e.Dst)
	switch {
	case rt == nil:
		if metric >= p.inf {
			return false
		}
		rt = p.insert(e.Dst)
		rt.metric, rt.nextHop, rt.deadline = int16(metric), from, now+p.cfg.Timeout
		p.setChanged(e.Dst, rt)
		p.noteDeadline(rt.deadline)
		p.node.SetRoute(e.Dst, from)
		return true

	case from == rt.nextHop:
		// News from the current next hop is always believed, even if worse.
		if metric < p.inf {
			rt.deadline = now + p.cfg.Timeout
			p.noteDeadline(rt.deadline)
		}
		if metric == int32(rt.metric) {
			return false
		}
		wasReachable := int32(rt.metric) < p.inf
		rt.metric = int16(metric)
		p.setChanged(e.Dst, rt)
		if metric >= p.inf {
			if wasReachable {
				rt.deadline = now + p.cfg.GCTime
				p.noteDeadline(rt.deadline)
				p.node.ClearRoute(e.Dst)
			}
		} else {
			// The route may be coming back from unreachable via the same
			// next hop; (re)install the forwarding entry either way.
			p.node.SetRoute(e.Dst, from)
		}
		return true

	case metric < int32(rt.metric):
		rt.metric = int16(metric)
		rt.nextHop = from
		rt.deadline = now + p.cfg.Timeout
		p.setChanged(e.Dst, rt)
		p.noteDeadline(rt.deadline)
		p.node.SetRoute(e.Dst, from)
		return true
	}
	return false
}

// LinkDown implements netsim.Protocol: every route through the lost
// neighbor becomes unreachable until some other neighbor advertises an
// alternative (RIP keeps no alternates — §4.1).
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	p.up[neighbor] = false
	now := p.node.Sim().Now()
	changedAny := false
	for dst := routing.NodeID(0); int(dst) < len(p.table); dst++ {
		rt := &p.table[dst]
		if !rt.valid || rt.nextHop != neighbor || int32(rt.metric) >= p.inf {
			continue
		}
		rt.metric = int16(p.inf)
		rt.deadline = now + p.cfg.GCTime
		p.setChanged(dst, rt)
		p.noteDeadline(rt.deadline)
		p.node.ClearRoute(dst)
		changedAny = true
	}
	if changedAny {
		p.adv.RouteChanged()
	}
}

// LinkUp implements netsim.Protocol: the restored neighbor immediately
// receives our full table (standing in for RIP's request/response exchange).
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	p.up[neighbor] = true
	p.stage(true)
	p.sendStaged(neighbor)
	p.snd.End()
}

// housekeep expires timed-out routes and garbage-collects dead ones. The
// full scan runs only when the earliest tracked deadline has passed;
// otherwise the tick is O(1) — on a quiet tick (the overwhelmingly common
// case) nothing could have expired, so skipping the scan changes nothing.
func (p *Protocol) housekeep() {
	now := p.node.Sim().Now()
	if p.nextDeadline != 0 && now < p.nextDeadline {
		p.hk.Reset(housekeepInterval)
		return
	}
	changedAny := false
	next := noDeadline
	self := p.node.ID()
	for dst := routing.NodeID(0); int(dst) < len(p.table); dst++ {
		rt := &p.table[dst]
		if !rt.valid || dst == self {
			continue
		}
		if int32(rt.metric) < p.inf && now >= rt.deadline {
			rt.metric = int16(p.inf)
			rt.deadline = now + p.cfg.GCTime
			p.setChanged(dst, rt)
			p.node.ClearRoute(dst)
			changedAny = true
		}
		if int32(rt.metric) >= p.inf && rt.deadline > 0 && now >= rt.deadline {
			rt.valid = false
			p.nlive--
			p.ver++ // deletions drop out of the advertised table too
			continue
		}
		// Track the surviving entry's next deadline for the skip bound.
		if rt.deadline > 0 && rt.deadline < next {
			next = rt.deadline
		}
	}
	p.nextDeadline = next
	if changedAny {
		p.adv.RouteChanged()
	}
	p.hk.Reset(housekeepInterval)
}

// broadcastFull sends the whole table to every up neighbor.
func (p *Protocol) broadcastFull() { p.broadcast(true) }

// broadcastChanged sends only routes with the changed flag (a triggered
// update) to every up neighbor.
func (p *Protocol) broadcastChanged() { p.broadcast(false) }

func (p *Protocol) broadcast(full bool) {
	p.stage(full)
	for _, n := range p.node.Neighbors() {
		if p.up[n] {
			p.sendStaged(n)
		}
	}
	p.snd.End()
	p.clearChanged()
}

// stage snapshots one advertisement burst — the whole table, or only
// routes with the changed flag (iterating the changed bitmap), in
// ascending destination order either way — into the shared pooled
// snapshot that all per-neighbor messages of this broadcast view.
func (p *Protocol) stage(full bool) {
	if full {
		b := p.snd.Begin(p.node, p.nlive, p.inf, p.ver, true)
		for dst := routing.NodeID(0); int(dst) < len(p.table); dst++ {
			rt := &p.table[dst]
			if !rt.valid {
				continue
			}
			b.Entries = append(b.Entries, routing.VectorEntry{Dst: dst, Metric: int32(rt.metric)})
			b.NextHop = append(b.NextHop, rt.nextHop)
		}
		return
	}
	need := 0
	for _, word := range p.changedBits {
		need += bits.OnesCount64(word)
	}
	b := p.snd.Begin(p.node, need, p.inf, p.ver, false)
	for w, word := range p.changedBits {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			dst := routing.NodeID(w<<6 + bit)
			if int(dst) >= len(p.table) {
				break
			}
			rt := &p.table[dst]
			if !rt.valid || !rt.changed {
				continue // stale bit (entry replaced or garbage-collected)
			}
			b.Entries = append(b.Entries, routing.VectorEntry{Dst: dst, Metric: int32(rt.metric)})
			b.NextHop = append(b.NextHop, rt.nextHop)
		}
	}
}

// sendStaged transmits the staged burst to one neighbor. With poisoned
// reverse the per-neighbor wire images differ only in poisoned metric
// values, so the messages are zero-copy views of the shared snapshot;
// plain split horizon (§4.2 ablation) omits entries instead, changing
// per-neighbor lengths, so that path materializes an explicit list
// exactly as before.
func (p *Protocol) sendStaged(to routing.NodeID) {
	b := p.snd.Staged()
	if len(b.Entries) == 0 {
		return
	}
	if p.cfg.PoisonReverse {
		sent := p.snd.SendTo(p.node, &p.cfg, to)
		p.node.Metrics().Add(obs.ProtoUpdatesSent, uint64(sent))
		return
	}
	entries := make([]routing.VectorEntry, 0, len(b.Entries))
	self := p.node.ID()
	for i, e := range b.Entries {
		if b.NextHop[i] == to && e.Dst != self {
			continue // plain split horizon: stay silent
		}
		entries = append(entries, e)
	}
	for _, msg := range p.cfg.PackEntries(entries) {
		p.node.Metrics().Inc(obs.ProtoUpdatesSent)
		p.node.SendControl(to, msg)
	}
}

func (p *Protocol) clearChanged() {
	for w, word := range p.changedBits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			if dst := w<<6 + b; dst < len(p.table) {
				p.table[dst].changed = false
			}
		}
		p.changedBits[w] = 0
	}
}
