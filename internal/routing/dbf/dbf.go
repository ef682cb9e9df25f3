// Package dbf implements the Distributed Bellman-Ford protocol of the
// paper's §3 (Bertsekas & Gallager): identical to RIP on the wire, but each
// router additionally caches the latest distance vector heard from every
// neighbor. When the current next hop is lost, the router recomputes from
// the cache and switches to an alternate instantly — the zero-time path
// switch-over of §4.1. Poisoned-reverse entries live in the cache as
// infinity, so at low node degree the cached alternates may all be invalid,
// exactly as the paper's degree-4 example describes.
package dbf

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
)

// housekeepInterval is how often neighbor liveness is scanned.
const housekeepInterval = time.Second

// cacheAbsent marks a destination never heard from a neighbor.
const cacheAbsent = -1

// best is the computed route for one destination.
type best struct {
	metric  int
	nextHop routing.NodeID
	changed bool // included in the next triggered update
	valid   bool // slot holds a live entry
}

// Protocol is a DBF speaker bound to one node.
type Protocol struct {
	node *netsim.Node
	cfg  routing.VectorConfig
	// cache holds, per neighbor, the latest metric heard per destination
	// (after the neighbor's split-horizon processing). Both dimensions are
	// dense, indexed by node ID, with cacheAbsent marking unheard entries.
	cache     [][]int32
	lastHeard map[routing.NodeID]time.Duration
	// table is dense, indexed by destination ID; invalid slots are absent.
	table []best
	// nlive counts valid table slots (entries are never deleted), giving
	// full-table stagings their burst size without a counting pass.
	nlive int
	// known records every destination ever present in the table or a
	// neighbor cache. It is monotone: entries are never unlearned, which is
	// behaviour-neutral because recompute and the update collector both
	// no-op for a destination with no table entry and no cached vector.
	known []bool
	up    map[routing.NodeID]bool
	adv   *routing.Advertiser
	hk    *sim.Timer
	// ver is the monotone change-version clock: it advances whenever the
	// advertised table state changes — metric, next hop (the poison
	// pattern of full updates depends on it), or entry liveness.
	ver uint64
	// seen holds, per neighbor, the version stamp of the last FULL
	// advertisement incorporated into the cache; map presence means the
	// cache mirrored the neighbor's table exactly at that stamp (torn
	// down whenever clearCache forgets the neighbor). Only fulls advance
	// it: triggered updates omit next-hop-only tie switches, which change
	// the poison pattern the stamp vouches for. A re-advertisement at or
	// below the stamp can only repeat cache-equal entries, so the
	// receiver skips the whole chunk.
	seen map[routing.NodeID]uint64
	// snd stages advertisement bursts once per broadcast into a shared
	// pooled snapshot; per-neighbor messages are index views with
	// read-time poisoned reverse (see routing.BurstSender).
	snd routing.BurstSender
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a DBF instance for the node.
func New(node *netsim.Node, cfg routing.VectorConfig) *Protocol {
	p := &Protocol{
		node:      node,
		cfg:       cfg,
		lastHeard: make(map[routing.NodeID]time.Duration),
		up:        make(map[routing.NodeID]bool),
		seen:      make(map[routing.NodeID]uint64),
	}
	p.adv = routing.NewAdvertiser(node, &p.cfg, p.broadcastFull, p.broadcastChanged)
	p.hk = sim.NewTimer(node.Sim(), p.housekeep)
	return p
}

// Factory returns a constructor suitable for attaching DBF to every node.
func Factory(cfg routing.VectorConfig) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// Table returns the computed metric and next hop for dst. Exposed for
// tests and tools.
func (p *Protocol) Table(dst routing.NodeID) (metric int, nextHop routing.NodeID, ok bool) {
	b := p.entry(dst)
	if b == nil {
		return 0, 0, false
	}
	return b.metric, b.nextHop, true
}

// entry returns the live table entry for dst, or nil.
func (p *Protocol) entry(dst routing.NodeID) *best {
	if dst >= 0 && int(dst) < len(p.table) && p.table[dst].valid {
		return &p.table[dst]
	}
	return nil
}

// insert claims the table slot for dst, growing on demand, and returns it
// zeroed with valid set. Start presizes the table to the network, so growth
// here only triggers for unit tests that inject out-of-range IDs; it
// doubles anyway so repeated single-destination growth stays amortized.
func (p *Protocol) insert(dst routing.NodeID) *best {
	if int(dst) >= len(p.table) {
		n := int(dst) + 1
		if n < 2*len(p.table) {
			n = 2 * len(p.table)
		}
		grown := make([]best, n)
		copy(grown, p.table)
		p.table = grown
	}
	p.table[dst] = best{valid: true}
	p.nlive++
	p.markKnown(dst)
	return &p.table[dst]
}

// markKnown records dst in the known set.
func (p *Protocol) markKnown(dst routing.NodeID) {
	if int(dst) >= len(p.known) {
		n := int(dst) + 1
		if n < 2*len(p.known) {
			n = 2 * len(p.known)
		}
		grown := make([]bool, n)
		copy(grown, p.known)
		p.known = grown
	}
	p.known[dst] = true
}

// cacheGet returns the metric last heard from neighbor n for dst.
func (p *Protocol) cacheGet(n, dst routing.NodeID) (int, bool) {
	if int(n) < len(p.cache) {
		c := p.cache[n]
		if int(dst) < len(c) && c[dst] != cacheAbsent {
			return int(c[dst]), true
		}
	}
	return 0, false
}

// cacheSet records the metric heard from neighbor n for dst, growing both
// cache dimensions on demand.
func (p *Protocol) cacheSet(n, dst routing.NodeID, m int) {
	if int(n) >= len(p.cache) {
		sz := int(n) + 1
		if sz < 2*len(p.cache) {
			sz = 2 * len(p.cache)
		}
		grown := make([][]int32, sz)
		copy(grown, p.cache)
		p.cache = grown
	}
	c := p.cache[n]
	if int(dst) >= len(c) {
		// A neighbor that announces one destination will announce most of
		// them, so size new rows to the whole network immediately rather
		// than growing per destination.
		sz := int(dst) + 1
		if sz < 2*len(c) {
			sz = 2 * len(c)
		}
		if full := p.node.NetworkSize(); sz < full {
			sz = full
		}
		grown := make([]int32, sz)
		for i := len(c); i < len(grown); i++ {
			grown[i] = cacheAbsent
		}
		copy(grown, c)
		p.cache[n] = grown
		c = grown
	}
	c[dst] = int32(m)
	p.markKnown(dst)
}

// clearCache forgets everything heard from neighbor n, keeping the
// allocation for reuse.
func (p *Protocol) clearCache(n routing.NodeID) {
	delete(p.seen, n)
	if int(n) < len(p.cache) {
		c := p.cache[n]
		for i := range c {
			c[i] = cacheAbsent
		}
	}
}

// Start implements netsim.Protocol.
func (p *Protocol) Start() {
	// Node IDs are contiguous from 0, so size the dense per-destination
	// state to the network up front; growing it one new maximum destination
	// at a time is quadratic memory traffic on a 10k-node graph (the same
	// idiom as ls and bgp).
	if n := p.node.NetworkSize(); n > len(p.table) {
		table := make([]best, n)
		copy(table, p.table)
		p.table = table
		known := make([]bool, n)
		copy(known, p.known)
		p.known = known
	}
	self := p.node.ID()
	b := p.insert(self)
	b.metric, b.nextHop = 0, self
	for _, n := range p.node.Neighbors() {
		p.up[n] = true
	}
	p.adv.Start()
	p.hk.Reset(housekeepInterval)
	p.broadcastFull()
}

// HandleMessage implements netsim.Protocol.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*routing.VectorUpdate)
	if !ok {
		return
	}
	met := p.node.Metrics()
	met.Inc(obs.ProtoUpdatesReceived)
	p.lastHeard[from] = p.node.Sim().Now()
	n := u.Len()
	b := u.Burst()
	if b != nil {
		// Whole-chunk skip: the neighbor re-advertises a snapshot version
		// whose content the cache already mirrors, so every entry would
		// hit the cache-equality continue below. The liveness refresh
		// above is the only remaining effect and has already happened.
		if sv, ok := p.seen[from]; ok && b.Ver <= sv {
			met.Add(obs.ProtoAdvSkipped, uint64(n))
			return
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
		m := int(e.Metric)
		if m > p.cfg.Infinity {
			m = p.cfg.Infinity
		}
		if old, seen := p.cacheGet(from, e.Dst); seen && old == m {
			continue
		}
		p.cacheSet(from, e.Dst, m)
		if p.recompute(e.Dst) {
			changedAny = true
		}
	}
	if b != nil && b.Full && u.LastChunk() {
		p.seen[from] = b.Ver
	}
	if changedAny {
		p.adv.RouteChanged()
	}
}

// recompute re-runs the Bellman-Ford minimization for dst over all cached
// neighbor vectors and reports whether the advertised metric changed.
// The current next hop is preferred among ties so routes do not oscillate.
func (p *Protocol) recompute(dst routing.NodeID) bool {
	if dst == p.node.ID() {
		return false
	}
	p.node.Metrics().Inc(obs.ProtoDecisionRuns)
	cur := p.entry(dst)
	bestMetric := p.cfg.Infinity
	bestNext := routing.NodeID(-1)
	for _, n := range p.node.Neighbors() {
		if !p.up[n] {
			continue
		}
		heard, ok := p.cacheGet(n, dst)
		if !ok {
			continue
		}
		m := heard + 1 // unit link cost
		if m > p.cfg.Infinity {
			m = p.cfg.Infinity
		}
		if m < bestMetric || (m == bestMetric && cur != nil && n == cur.nextHop) {
			bestMetric = m
			bestNext = n
		}
	}
	if p.cfg.ECMP {
		p.installMultipath(dst, bestMetric)
	}
	switch {
	case bestMetric >= p.cfg.Infinity:
		if cur == nil || cur.metric >= p.cfg.Infinity {
			return false
		}
		cur.metric = p.cfg.Infinity
		cur.changed = true
		p.ver++
		p.node.ClearRoute(dst)
		return true

	case cur == nil:
		b := p.insert(dst)
		b.metric, b.nextHop, b.changed = bestMetric, bestNext, true
		p.ver++
		p.node.SetRoute(dst, bestNext)
		return true

	default:
		metricChanged := cur.metric != bestMetric
		if metricChanged || cur.nextHop != bestNext {
			// Next-hop-only tie switches change no advertised metric, but
			// they flip the poisoned-reverse pattern of the next full
			// update, so the version clock must advance for them too.
			p.ver++
		}
		if cur.nextHop != bestNext || cur.metric >= p.cfg.Infinity {
			p.node.SetRoute(dst, bestNext)
		}
		cur.metric = bestMetric
		cur.nextHop = bestNext
		if metricChanged {
			cur.changed = true
		}
		return metricChanged
	}
}

// installMultipath installs every up neighbor achieving the minimum metric
// as the ECMP set for dst (cleared when unreachable or single-path).
func (p *Protocol) installMultipath(dst routing.NodeID, bestMetric int) {
	if bestMetric >= p.cfg.Infinity {
		p.node.SetMultipath(dst, nil)
		return
	}
	var set []routing.NodeID
	for _, n := range p.node.Neighbors() {
		if !p.up[n] {
			continue
		}
		if heard, ok := p.cacheGet(n, dst); ok && heard+1 == bestMetric {
			set = append(set, n)
		}
	}
	p.node.SetMultipath(dst, set)
}

// LinkDown implements netsim.Protocol: the neighbor's cached vector is
// discarded and every destination is recomputed, switching instantly to
// alternates where the cache holds any.
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	p.up[neighbor] = false
	p.clearCache(neighbor)
	p.recomputeAll()
}

// LinkUp implements netsim.Protocol.
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	p.up[neighbor] = true
	p.clearCache(neighbor)
	p.stage(false)
	p.sendStaged(neighbor)
	p.snd.End()
}

// recomputeAll re-minimizes every known destination.
func (p *Protocol) recomputeAll() {
	changedAny := false
	for dst := routing.NodeID(0); int(dst) < len(p.known); dst++ {
		if p.known[dst] && p.recompute(dst) {
			changedAny = true
		}
	}
	if changedAny {
		p.adv.RouteChanged()
	}
}

// housekeep expires neighbors that have been silent past the timeout.
func (p *Protocol) housekeep() {
	now := p.node.Sim().Now()
	for _, n := range p.node.Neighbors() {
		if !p.up[n] {
			continue
		}
		heard, ok := p.lastHeard[n]
		if ok && now-heard > p.cfg.Timeout {
			p.clearCache(n)
			delete(p.lastHeard, n)
			p.recomputeAll()
		}
	}
	p.hk.Reset(housekeepInterval)
}

func (p *Protocol) broadcastFull() {
	p.stage(false)
	for _, n := range p.node.Neighbors() {
		if p.up[n] {
			p.sendStaged(n)
		}
	}
	p.snd.End()
	p.clearChanged()
}

func (p *Protocol) broadcastChanged() {
	p.stage(true)
	for _, n := range p.node.Neighbors() {
		if p.up[n] {
			p.sendStaged(n)
		}
	}
	p.snd.End()
	p.clearChanged()
}

// stage snapshots the live (optionally changed-only) routes for
// advertisement, in ascending destination order, into the shared pooled
// burst that all per-neighbor messages of this broadcast view.
func (p *Protocol) stage(changedOnly bool) {
	need := p.nlive
	if changedOnly {
		need = 0
		for i := range p.table {
			if p.table[i].changed {
				need++
			}
		}
	}
	b := p.snd.Begin(p.node, need, int32(p.cfg.Infinity), p.ver, !changedOnly)
	for dst := routing.NodeID(0); int(dst) < len(p.known); dst++ {
		if !p.known[dst] {
			continue
		}
		e := p.entry(dst)
		if e == nil || (changedOnly && !e.changed) {
			continue
		}
		b.Entries = append(b.Entries, routing.VectorEntry{Dst: dst, Metric: int32(e.metric)})
		b.NextHop = append(b.NextHop, e.nextHop)
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
	for i := range p.table {
		p.table[i].changed = false
	}
}
