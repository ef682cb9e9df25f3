// Package ls implements a simple link-state (SPF) routing protocol, the
// comparison the paper's §6 names as future work: each router floods
// link-state advertisements describing its adjacencies and computes
// shortest paths over the resulting map with Dijkstra (BFS, since all links
// have unit cost).
//
// A router keeps the entire topology, so after a detected failure it
// recomputes immediately — like DBF it has a near-zero path switch-over
// period, but unlike the vector protocols its alternate is always loop-free
// with respect to its own map.
//
// Performance: the LSA database is a dense slice indexed by origin and the
// SPF run works entirely in persistent, epoch-versioned scratch (CSR
// adjacency, distance array, counting sort), so a steady-state recompute
// performs no allocations. Ascending-index iteration reproduces the
// (distance, ID) order the previous map+sort implementation produced, so
// trial results are bit-for-bit identical.
package ls

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
)

// Message size model: flooded in IP (20 bytes), a 24-byte LSA header plus
// 4 bytes per listed neighbor — matching the encoding of the test oracle
// in codec_test.go, which TestWireSizeModel pins.
const (
	lsaHeaderLen = 24
	// IPOverhead is the network framing a flooded LSA rides in.
	IPOverhead = 20

	headerBytes   = IPOverhead + lsaHeaderLen
	neighborBytes = 4
)

// Config parameterizes the link-state protocol.
type Config struct {
	// RefreshInterval re-floods each router's LSA periodically. The study
	// only needs event-driven flooding; the refresh is a safety net.
	RefreshInterval time.Duration
	// ECMP installs every equal-cost first hop instead of a single next
	// hop; flows are hashed across them (an extension, off by default).
	ECMP bool
}

// DefaultConfig returns a 30-minute refresh, effectively event-driven for
// the paper's 800 s runs.
func DefaultConfig() Config { return Config{RefreshInterval: 30 * time.Minute} }

// LSA is one router's link-state advertisement. The Neighbors slice is
// built once by the originator and is immutable from then on: floods,
// every receiver's database, and re-floods all share it.
type LSA struct {
	Origin    routing.NodeID
	Seq       uint64
	Neighbors []routing.NodeID
}

// Flood is the message carrying one LSA hop by hop. Floods sent by a
// Protocol are drawn from a per-speaker free list and recycled by the
// network after delivery (netsim.PooledMessage); receivers keep the LSA
// value (and its immutable Neighbors slice), never the Flood itself.
// Hand-built floods (tests, DecodeFlood) are not pooled.
type Flood struct {
	LSA LSA
	// pool is the free list the flood returns to on Release; nil for
	// hand-built floods.
	pool *floodPool
}

// SizeBytes implements netsim.Message.
func (f *Flood) SizeBytes() int { return headerBytes + neighborBytes*len(f.LSA.Neighbors) }

// floodPool recycles Flood messages through a free list.
type floodPool struct{ free []*Flood }

// get returns a zeroed flood, reusing a released one when available.
func (fp *floodPool) get() *Flood {
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free = fp.free[:n-1]
		return f
	}
	return &Flood{pool: fp}
}

// Release implements netsim.PooledMessage. Only the reference to the LSA
// (and its shared Neighbors slice) is dropped; the slice itself is owned
// by its originator and is never reused.
func (f *Flood) Release() {
	if f.pool == nil {
		return
	}
	f.LSA = LSA{}
	f.pool.free = append(f.pool.free, f)
}

// distInf marks an unreachable node in the persistent distance array.
const distInf = int32(1<<31 - 1)

// spfScratch is the persistent workspace for recompute. Distance and
// first-hop-dedup arrays are epoch-versioned: bumping the epoch invalidates
// every entry at once, so nothing is cleared between runs.
type spfScratch struct {
	// adjOff/adjList form a CSR adjacency over the database: node o's
	// two-way-checked neighbors are adjList[adjOff[o]:adjOff[o+1]].
	adjOff  []int32
	adjList []routing.NodeID
	// dist[v] is valid iff distEpoch[v] == epoch.
	dist      []int32
	distEpoch []uint32
	epoch     uint32
	// order is the BFS queue and visit order (nondecreasing distance).
	order []routing.NodeID
	// sorted is order rearranged to (distance, ID) ascending.
	sorted []routing.NodeID
	// bucket holds per-distance placement offsets for the counting sort.
	bucket []int32
	// firstHops[v] is the sorted set of equal-cost first hops toward v;
	// rows are reused across runs. hopSeen/hopEpoch dedup hop candidates.
	firstHops [][]routing.NodeID
	hopSeen   []uint32
	hopEpoch  uint32
	// pdist is the persistent distance array maintained across runs
	// (distInf = unreachable). Together with firstHops it is the
	// shortest-path tree the incremental patch (incremental.go) edits in
	// place; a full recompute rewrites it from the epoch-versioned dist.
	pdist []int32
}

// next invalidates all epoch-versioned entries, clearing on wraparound.
func (s *spfScratch) next() {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.distEpoch {
			s.distEpoch[i] = 0
		}
		s.epoch = 1
	}
}

// nextHopEpoch invalidates the hop dedup marks, clearing on wraparound.
func (s *spfScratch) nextHopEpoch() uint32 {
	s.hopEpoch++
	if s.hopEpoch == 0 {
		for i := range s.hopSeen {
			s.hopSeen[i] = 0
		}
		s.hopEpoch = 1
	}
	return s.hopEpoch
}

// size allocates every array on the first run: for the network's n nodes,
// which bound the visit order and the distances, and its links, each of
// which the adjacency lists at both ends.
func (s *spfScratch) size(n, links int) {
	if s.dist != nil {
		return
	}
	s.adjOff = make([]int32, n+1)
	s.adjList = make([]routing.NodeID, 0, 2*links)
	s.order = make([]routing.NodeID, 0, n)
	s.sorted = make([]routing.NodeID, n)
	s.bucket = make([]int32, n)
	s.dist = make([]int32, n)
	s.distEpoch = make([]uint32, n)
	s.hopSeen = make([]uint32, n)
	s.firstHops = make([][]routing.NodeID, n)
	s.pdist = make([]int32, n)
	for i := range s.pdist {
		s.pdist[i] = distInf
	}
}

// Protocol is a link-state speaker bound to one node.
type Protocol struct {
	node *netsim.Node
	cfg  Config
	// db is the dense LSA database indexed by origin; db[o] is valid iff
	// have[o]. An explicit validity bit (rather than Seq > 0) preserves the
	// old map semantics: a first-heard LSA with Seq 0 is stored.
	db   []LSA
	have []bool
	// up holds, per neighbor rank (Node.Rank), whether the adjacency is up.
	up   []bool
	seq  uint64
	pool floodPool
	spf  spfScratch
	// haveSPT reports that spf.pdist/spf.firstHops hold the exact result
	// of the last recompute, making them a valid base for incremental
	// patching. Cleared until the first full SPF completes.
	haveSPT bool
	incr    incrScratch
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a link-state instance for the node.
func New(node *netsim.Node, cfg Config) *Protocol {
	return &Protocol{node: node, cfg: cfg}
}

// Factory returns a constructor suitable for attaching the protocol to
// every node.
func Factory(cfg Config) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// Start implements netsim.Protocol: the database is sized to the network,
// the adjacency states to the node's degree.
func (p *Protocol) Start() {
	n := p.node.NetworkSize()
	p.db = make([]LSA, n)
	p.have = make([]bool, n)
	p.up = make([]bool, len(p.node.Neighbors()))
	for r := range p.up {
		p.up[r] = true
	}
	p.originate()
	p.scheduleRefresh()
}

func (p *Protocol) scheduleRefresh() {
	if p.cfg.RefreshInterval <= 0 {
		return
	}
	p.node.Sim().Schedule(p.cfg.RefreshInterval, func() {
		p.originate()
		p.scheduleRefresh()
	})
}

// originate builds this router's LSA from its detected-up adjacencies and
// floods it. The neighbor list is freshly allocated each time because it
// outlives the call: floods in flight, every receiver's database, and this
// router's own database all share it.
func (p *Protocol) originate() {
	p.seq++
	var neighbors []routing.NodeID
	for r, n := range p.node.Neighbors() {
		if p.up[r] {
			neighbors = append(neighbors, n)
		}
	}
	self := p.node.ID()
	lsa := LSA{Origin: self, Seq: p.seq, Neighbors: neighbors}
	old, hadOld := p.db[self], p.have[self]
	p.db[self] = lsa
	p.have[self] = true
	p.flood(lsa, -1)
	p.applyDelta(self, old, hadOld)
}

// flood forwards an LSA to every up neighbor except the one it came from.
func (p *Protocol) flood(lsa LSA, except routing.NodeID) {
	for r, n := range p.node.Neighbors() {
		if n == except || !p.up[r] {
			continue
		}
		f := p.pool.get()
		f.LSA = lsa
		p.node.Metrics().Inc(obs.ProtoFloodsSent)
		p.node.SendControl(n, f)
	}
}

// HandleMessage implements netsim.Protocol. A flood whose origin or any
// listed neighbor lies outside the network is dropped here, so the
// database and the SPF see node IDs in [0, NetworkSize) only.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	f, ok := msg.(*Flood)
	if !ok {
		return
	}
	p.node.Metrics().Inc(obs.ProtoFloodsReceived)
	origin := f.LSA.Origin
	if !p.inNetwork(origin) {
		return
	}
	for _, nb := range f.LSA.Neighbors {
		if !p.inNetwork(nb) {
			return
		}
	}
	if p.have[origin] && p.db[origin].Seq >= f.LSA.Seq {
		return // stale or duplicate: stop the flood
	}
	old, hadOld := p.db[origin], p.have[origin]
	p.db[origin] = f.LSA
	p.have[origin] = true
	p.flood(f.LSA, from)
	p.applyDelta(origin, old, hadOld)
}

// inNetwork reports whether id names a node of the network.
func (p *Protocol) inNetwork(id routing.NodeID) bool { return uint(id) < uint(len(p.db)) }

// applyDelta recomputes routes after the LSA for origin changed from old
// (hadOld reports whether one existed) to the stored one: incrementally
// when the change reduces to at most one effective edge and the affected
// region is small, otherwise via a full SPF. Both paths produce identical
// tables and identical observable effects; TestIncrementalMatchesFullSPF
// asserts the equivalence on randomized histories.
func (p *Protocol) applyDelta(origin routing.NodeID, old LSA, hadOld bool) {
	if p.tryIncremental(origin, old, hadOld) {
		return
	}
	p.recompute()
}

// LinkDown implements netsim.Protocol.
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	p.up[p.node.Rank(neighbor)] = false
	p.originate()
}

// LinkUp implements netsim.Protocol: the adjacency re-forms and the
// database is synchronized to the neighbor.
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	p.up[p.node.Rank(neighbor)] = true
	for o := range p.db {
		if !p.have[o] {
			continue
		}
		f := p.pool.get()
		f.LSA = p.db[o]
		p.node.Metrics().Inc(obs.ProtoFloodsSent)
		p.node.SendControl(neighbor, f)
	}
	p.originate()
}

// recompute runs shortest-path first over the link-state database and
// installs next hops. An edge is used only when both endpoints advertise
// it (the two-way check). All work happens in the persistent scratch.
func (p *Protocol) recompute() {
	p.node.Metrics().Inc(obs.ProtoDecisionRuns)
	self := p.node.ID()
	n := len(p.db)
	s := &p.spf
	s.size(n, p.node.NetworkLinks())

	// Build the CSR adjacency in ascending-origin order.
	s.adjList = s.adjList[:0]
	for o := 0; o < n; o++ {
		s.adjOff[o] = int32(len(s.adjList))
		if !p.have[o] {
			continue
		}
		for _, nb := range p.db[o].Neighbors {
			if p.have[nb] && containsID(p.db[nb].Neighbors, routing.NodeID(o)) {
				s.adjList = append(s.adjList, nb)
			}
		}
	}
	s.adjOff[n] = int32(len(s.adjList))

	// BFS from self; unit costs make this Dijkstra. order doubles as the
	// queue and ends up in nondecreasing-distance order.
	s.next()
	s.order = append(s.order[:0], self)
	s.dist[self] = 0
	s.distEpoch[self] = s.epoch
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		for _, v := range s.adjList[s.adjOff[u]:s.adjOff[u+1]] {
			if s.distEpoch[v] == s.epoch {
				continue
			}
			s.distEpoch[v] = s.epoch
			s.dist[v] = du + 1
			s.order = append(s.order, v)
		}
	}

	// Counting sort into (distance, ID) ascending order: count each BFS
	// level, turn counts into level offsets, then place nodes by one
	// ascending-ID scan — so each level is filled in ID order. This is the
	// order the old sort.Slice produced (keys are unique, so it is exact),
	// and it guarantees each node's first-hop set is complete before its
	// children consult it.
	maxDist := int(s.dist[s.order[len(s.order)-1]])
	for d := 0; d <= maxDist; d++ {
		s.bucket[d] = 0
	}
	for _, v := range s.order {
		s.bucket[s.dist[v]]++
	}
	var off int32
	for d := 0; d <= maxDist; d++ {
		c := s.bucket[d]
		s.bucket[d] = off
		off += c
	}
	s.sorted = s.sorted[:len(s.order)]
	for v := 0; v < n; v++ {
		if s.distEpoch[v] == s.epoch {
			d := s.dist[v]
			s.sorted[s.bucket[d]] = routing.NodeID(v)
			s.bucket[d]++
		}
	}

	// Resolve every equal-cost first hop in (distance, ID) order.
	for _, v := range s.sorted {
		if v == self {
			continue
		}
		hops := s.firstHops[v][:0]
		mark := s.nextHopEpoch()
		dv := s.dist[v]
		for _, u := range s.adjList[s.adjOff[v]:s.adjOff[v+1]] { // adj is symmetric (two-way check)
			if s.distEpoch[u] != s.epoch || s.dist[u] != dv-1 {
				continue
			}
			if u == self {
				if s.hopSeen[v] != mark {
					s.hopSeen[v] = mark
					hops = append(hops, v)
				}
				continue
			}
			for _, h := range s.firstHops[u] {
				if s.hopSeen[h] != mark {
					s.hopSeen[h] = mark
					hops = append(hops, h)
				}
			}
		}
		// Insertion sort: hop sets are tiny (old code sorted a map's keys).
		for i := 1; i < len(hops); i++ {
			h := hops[i]
			j := i - 1
			for j >= 0 && hops[j] > h {
				hops[j+1] = hops[j]
				j--
			}
			hops[j+1] = h
		}
		s.firstHops[v] = hops
		p.node.SetRoute(v, hops[0])
		if p.cfg.ECMP {
			// SetMultipath retains the slice, so hand it a copy the scratch
			// won't overwrite next run.
			p.node.SetMultipath(v, append([]routing.NodeID(nil), hops...))
		}
	}

	// Destinations in the database but unreachable lose their routes.
	for o := 0; o < n; o++ {
		if p.have[o] && s.distEpoch[o] != s.epoch {
			p.node.ClearRoute(routing.NodeID(o))
			p.node.SetMultipath(routing.NodeID(o), nil)
		}
	}

	// Persist the tree for incremental patching: distances for every node
	// (distInf when unreachable) plus the first-hop rows written above.
	for v := 0; v < n; v++ {
		if s.distEpoch[v] == s.epoch {
			s.pdist[v] = s.dist[v]
		} else {
			s.pdist[v] = distInf
		}
	}
	p.haveSPT = true
}

func containsID(list []routing.NodeID, id routing.NodeID) bool {
	for _, n := range list {
		if n == id {
			return true
		}
	}
	return false
}
