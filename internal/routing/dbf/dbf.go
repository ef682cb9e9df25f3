// Package dbf implements the Distributed Bellman-Ford protocol of the
// paper's §3 (Bertsekas & Gallager): identical to RIP on the wire, but each
// router additionally caches the latest distance vector heard from every
// neighbor. When the current next hop is lost, the router recomputes from
// the cache and switches to an alternate instantly — the zero-time path
// switch-over of §4.1. Poisoned-reverse entries live in the cache as
// infinity, so at low node degree the cached alternates may all be invalid,
// exactly as the paper's degree-4 example describes.
//
// The table, staging and broadcasts are the shared routing.Vector core;
// this package holds what is DBF's own: the per-neighbor cache, the
// Bellman-Ford recompute (with optional ECMP), the cache-mirror
// whole-chunk skip, neighbor-liveness timeouts, and a LinkDown that drops
// the lost neighbor's cached vector.
package dbf

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
)

// cacheAbsent marks a destination never heard from a neighbor.
const cacheAbsent = -1

// Protocol is a DBF speaker bound to one node. The embedded routing.Vector
// holds the computed table and sends every advertisement; the rows'
// Deadline field is unused.
type Protocol struct {
	routing.Vector
	// nbrs holds the per-neighbor state, indexed by neighbor rank
	// (Node.Rank) and sized to the node's degree at Start.
	nbrs []neighbor
	// known records every destination ever present in a neighbor cache. It
	// is monotone: entries are never unlearned, which is behaviour-neutral
	// because recompute no-ops for a destination with no table entry and
	// no cached vector.
	known []bool
}

// neighbor is what DBF remembers of one neighbor.
type neighbor struct {
	// cache holds the latest metric heard per destination (after the
	// neighbor's split-horizon processing), indexed by destination ID and
	// sized to the network, with cacheAbsent marking unheard entries. The
	// rows of all neighbors share one allocation.
	cache []int32
	// heard is when the neighbor was last heard, valid while heardOK.
	heard time.Duration
	// seen is the version stamp of the last FULL advertisement
	// incorporated into the cache; seenOK means the cache mirrored the
	// neighbor's table exactly at that stamp (torn down whenever
	// clearCache forgets the neighbor). Only fulls advance it: triggered
	// updates omit next-hop-only tie switches, which change the poison
	// pattern the stamp vouches for. A re-advertisement at or below the
	// stamp can only repeat cache-equal entries, so the receiver skips the
	// whole chunk.
	seen            uint64
	heardOK, seenOK bool
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a DBF instance for the node.
func New(node *netsim.Node, cfg routing.VectorConfig) *Protocol {
	p := &Protocol{}
	p.Init(node, cfg, p.housekeep)
	return p
}

// Factory returns a constructor suitable for attaching DBF to every node.
func Factory(cfg routing.VectorConfig) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// cacheGet returns the metric last heard from the neighbor of rank r for
// dst.
func (p *Protocol) cacheGet(r int, dst routing.NodeID) (int32, bool) {
	if m := p.nbrs[r].cache[dst]; m != cacheAbsent {
		return m, true
	}
	return 0, false
}

// clearCache forgets everything heard from the neighbor of rank r.
func (p *Protocol) clearCache(r int) {
	nb := &p.nbrs[r]
	nb.seenOK = false
	for i := range nb.cache {
		nb.cache[i] = cacheAbsent
	}
}

// Start implements netsim.Protocol: the neighbor caches (degree rows of
// network-wide length) and the known set are sized alongside the table.
func (p *Protocol) Start() {
	n := p.Node.NetworkSize()
	p.nbrs = make([]neighbor, len(p.Node.Neighbors()))
	flat := make([]int32, len(p.nbrs)*n)
	for i := range flat {
		flat[i] = cacheAbsent
	}
	for r := range p.nbrs {
		p.nbrs[r].cache = flat[r*n : (r+1)*n : (r+1)*n]
	}
	p.known = make([]bool, n)
	p.Vector.Start()
}

// HandleMessage implements netsim.Protocol.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*routing.VectorUpdate)
	if !ok {
		return
	}
	met := p.Node.Metrics()
	met.Inc(obs.ProtoUpdatesReceived)
	r := int(p.Node.Rank(from))
	nb := &p.nbrs[r]
	nb.heard, nb.heardOK = p.Node.Sim().Now(), true
	n := u.Len()
	b := u.Burst()
	if b != nil {
		// Whole-chunk skip: the neighbor re-advertises a snapshot version
		// whose content the cache already mirrors, so every entry would
		// hit the cache-equality continue below. The liveness refresh
		// above is the only remaining effect and has already happened.
		if nb.seenOK && b.Ver <= nb.seen {
			met.Add(obs.ProtoAdvSkipped, uint64(n))
			return
		}
	}
	changedAny := false
	// View iteration keeps the hot loop free of per-entry call overhead;
	// the read-time poisoned reverse EntryAt applies is inlined here (nhs
	// is nil for explicit updates, which carry literal entries).
	ents, nhs, origin, binf := u.View()
	self := p.Node.ID()
	for i, e := range ents {
		if uint(e.Dst) >= uint(len(p.Rows)) {
			continue // outside the network
		}
		if nhs != nil && nhs[i] == self && e.Dst != origin {
			e.Metric = binf
		}
		m := min(e.Metric, p.Inf)
		if old, seen := p.cacheGet(r, e.Dst); seen && old == m {
			continue
		}
		nb.cache[e.Dst] = m
		p.known[e.Dst] = true
		if p.recompute(e.Dst) {
			changedAny = true
		}
	}
	if b != nil && b.Full && u.LastChunk() {
		nb.seen, nb.seenOK = b.Ver, true
	}
	if changedAny {
		p.Adv.RouteChanged()
	}
}

// recompute re-runs the Bellman-Ford minimization for dst over all cached
// neighbor vectors and reports whether the advertised metric changed.
// The current next hop is preferred among ties so routes do not oscillate;
// rows store next hops as neighbor ranks, so the loop compares its index.
func (p *Protocol) recompute(dst routing.NodeID) bool {
	if dst == p.Node.ID() {
		return false
	}
	p.Node.Metrics().Inc(obs.ProtoDecisionRuns)
	cur := p.Live(dst)
	nbrs := p.Node.Neighbors()
	bestMetric := p.Inf
	best := -1 // the best neighbor's rank; valid whenever bestMetric < Inf
	for r := range nbrs {
		if !p.Up[r] {
			continue
		}
		heard, ok := p.cacheGet(r, dst)
		if !ok {
			continue
		}
		m := min(heard+1, p.Inf) // unit link cost
		if m < bestMetric || (m == bestMetric && cur != nil && routing.RankHop(r) == cur.Hop) {
			bestMetric = m
			best = r
		}
	}
	if p.Cfg.ECMP {
		p.installMultipath(dst, bestMetric)
	}
	switch {
	case bestMetric >= p.Inf:
		if cur == nil || int32(cur.Metric) >= p.Inf {
			return false
		}
		cur.Metric = int16(p.Inf)
		p.SetChanged(dst)
		p.Node.ClearRoute(dst)
		return true

	case cur == nil:
		cur = p.Insert(dst, routing.RankHop(best))
		cur.Metric = int16(bestMetric)
		p.SetChanged(dst)
		p.Node.SetRoute(dst, nbrs[best])
		return true

	default:
		hop := routing.RankHop(best)
		metricChanged := int32(cur.Metric) != bestMetric
		if cur.Hop != hop || int32(cur.Metric) >= p.Inf {
			p.Node.SetRoute(dst, nbrs[best])
		}
		if metricChanged {
			p.SetChanged(dst)
		} else if cur.Hop != hop {
			// Next-hop-only tie switches change no advertised metric, but
			// they flip the poisoned-reverse pattern of the next full
			// update, so the version clock must advance for them too.
			p.Ver++
		}
		cur.Metric = int16(bestMetric)
		cur.Hop = hop
		return metricChanged
	}
}

// installMultipath installs every up neighbor achieving the minimum metric
// as the ECMP set for dst (cleared when unreachable or single-path).
func (p *Protocol) installMultipath(dst routing.NodeID, bestMetric int32) {
	if bestMetric >= p.Inf {
		p.Node.SetMultipath(dst, nil)
		return
	}
	var set []routing.NodeID
	for r, n := range p.Node.Neighbors() {
		if !p.Up[r] {
			continue
		}
		if heard, ok := p.cacheGet(r, dst); ok && heard+1 == bestMetric {
			set = append(set, n)
		}
	}
	p.Node.SetMultipath(dst, set)
}

// LinkDown implements netsim.Protocol: the neighbor's cached vector is
// discarded and every destination is recomputed, switching instantly to
// alternates where the cache holds any.
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	r := int(p.Node.Rank(neighbor))
	p.Up[r] = false
	p.clearCache(r)
	p.recomputeAll()
}

// LinkUp implements netsim.Protocol: the restored neighbor starts from an
// empty cache and receives our full table.
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	p.clearCache(int(p.Node.Rank(neighbor)))
	p.Vector.LinkUp(neighbor)
}

// recomputeAll re-minimizes every known destination.
func (p *Protocol) recomputeAll() {
	changedAny := false
	for dst, k := range p.known {
		if k && p.recompute(routing.NodeID(dst)) {
			changedAny = true
		}
	}
	if changedAny {
		p.Adv.RouteChanged()
	}
}

// housekeep expires neighbors that have been silent past the timeout.
func (p *Protocol) housekeep() {
	now := p.Node.Sim().Now()
	for r := range p.nbrs {
		if nb := &p.nbrs[r]; p.Up[r] && nb.heardOK && now-nb.heard > p.Cfg.Timeout {
			p.clearCache(r)
			nb.heardOK = false
			p.recomputeAll()
		}
	}
}
