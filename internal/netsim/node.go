package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// Protocol is a routing protocol instance attached to one node. All methods
// run synchronously inside the event loop.
type Protocol interface {
	// Start begins protocol operation (initial announcements, periodic
	// timers). Called once by Network.Start.
	Start()
	// HandleMessage delivers a routing message received from a directly
	// connected neighbor.
	HandleMessage(from NodeID, msg Message)
	// LinkDown reports that the link to neighbor has been detected failed.
	LinkDown(neighbor NodeID)
	// LinkUp reports that the link to neighbor has been detected restored.
	LinkUp(neighbor NodeID)
}

// noRoute is the next hop reported for a destination without a forwarding
// entry.
const noRoute NodeID = -1

// noPort marks an empty FIB slot, and is the rank of a non-neighbor.
const noPort int32 = -1

// MaxDegree is the most neighbors a node may have. Forwarding state holds
// a neighbor's rank in 16 bits: the FIB stores rank+1 with 0 for an empty
// slot, and routing's distance-vector rows keep the top value for a node's
// own row. A graph near the cap would need n² tables of tens of GB, so no
// runnable trial reaches it.
const MaxDegree = math.MaxUint16 - 1

// fibSlot is one FIB entry: the next hop's rank plus one, 0 when empty, so
// a freshly made table is all empty.
type fibSlot uint16

// FIBSlotBytes is the size of one FIB entry; every node holds one per
// destination.
const FIBSlotBytes = int(unsafe.Sizeof(fibSlot(0)))

// Node is a router: it owns a forwarding table (FIB), output ports, and
// optionally a routing protocol that maintains the FIB.
type Node struct {
	id  NodeID
	net *Network
	// exec is the execution context the node's events run against: the
	// network's root context, or the node's shard in a sharded run.
	exec *exec
	// rng is the node's private random stream. Protocol jitter draws from
	// it instead of the shared simulator RNG so the sequence each node
	// sees depends only on its own event order — which sharded execution
	// preserves — rather than on the global interleaving.
	rng sim.Stream
	// neighbors is sorted ascending, which gives protocols a deterministic
	// iteration order; ports is parallel to it. A neighbor's index in both is
	// its rank, so the port table costs O(degree) and holds no nil slots for
	// the collector to scan.
	neighbors []NodeID
	ports     []*port
	// fib is indexed by destination ID (node IDs are contiguous from 0) and
	// holds the next hop's rank as a fibSlot, so the data path indexes
	// ports directly.
	fib []fibSlot
	// backup holds precomputed protection next hops (fast reroute), in
	// preference order: used the instant the primary is unusable, without
	// waiting for protocol convergence.
	backup map[NodeID][]NodeID
	// multi holds equal-cost multipath sets installed by ECMP-capable
	// protocols; flows hash across them.
	multi map[NodeID][]NodeID
	proto Protocol
	// failed marks a node taken down by FailNode, until RecoverNode.
	failed bool
}

// ID returns the node's identifier.
func (nd *Node) ID() NodeID { return nd.id }

// Sim returns the simulator driving this node's events, for protocol
// timers: the network's simulator, or the shard's in a sharded run.
func (nd *Node) Sim() *sim.Simulator { return nd.exec.sim }

// Jitter returns a duration uniform on [lo, hi] from the node's private
// random stream. Protocols must draw their timer jitter here rather than
// from Sim().Rand(): the shared RNG's sequence depends on global event
// interleaving, which sharded execution does not reproduce.
func (nd *Node) Jitter(lo, hi time.Duration) time.Duration { return nd.rng.Jitter(lo, hi) }

// Metrics returns the obs counter set this node's events record into, for
// protocol-level counters: the network's, or its shard's in a sharded run.
// It reads through the execution context at call time, so callers must not
// cache it across EnableSharding.
func (nd *Node) Metrics() *obs.Metrics { return nd.exec.met }

// Note raises a protocol timeline record for this node at the current
// time — a withdrawal sent to peer for dst, a damping transition of the
// route to dst learned from peer — through the observer stream, in the
// same order as the node's FIB changes.
func (nd *Node) Note(kind obs.Kind, peer, dst NodeID) {
	ex := nd.ctx()
	ex.note(obs.Record{At: ex.sim.Now(), Kind: kind, Node: int(nd.id), Peer: int(peer), Dst: int(dst)})
}

// MessagePool returns the slot where the node's home execution context —
// the root context, or the node's shard in a sharded run — keeps the free
// lists behind the PooledMessages this node sends. It is the home context
// even while the coordinator runs the node's events at a barrier: a pooled
// message is released on its sender's shard or while every shard is parked
// (releasePooled), and the sender sends from that shard or while every shard
// is parked, so whatever is stored here is only ever touched by one
// goroutine at a time and needs no lock. The slot lives as long as the
// context, so pooled memory never outlives the trial.
func (nd *Node) MessagePool() *any { return &nd.exec.msgPool }

// NetworkSize returns the number of nodes in the network. Node IDs are
// contiguous from 0, so protocols use it to size dense per-destination
// tables up front.
func (nd *Node) NetworkSize() int { return len(nd.net.nodes) }

// Neighbors returns the node's directly connected neighbors in ascending ID
// order. The slice is owned by the node; callers must not modify it.
func (nd *Node) Neighbors() []NodeID { return nd.neighbors }

// Rank returns the neighbor's rank — its index in Neighbors(), the index
// of its port and of every per-neighbor table a protocol keeps — or -1
// when id is not a neighbor. Ascending rank is ascending ID.
func (nd *Node) Rank(id NodeID) int32 {
	if i, ok := slices.BinarySearch(nd.neighbors, id); ok {
		return int32(i)
	}
	return noPort
}

// neighborAt is Rank's inverse: the neighbor ID at rank r, noRoute for
// noPort.
func (nd *Node) neighborAt(r int32) NodeID {
	if r == noPort {
		return noRoute
	}
	return nd.neighbors[r]
}

// portTo returns the output port toward the given node, or nil when it is
// not a neighbor.
func (nd *Node) portTo(id NodeID) *port {
	if r := nd.Rank(id); r != noPort {
		return nd.ports[r]
	}
	return nil
}

// addPort installs the output port toward a new neighbor at its sorted
// position. An insertion below existing neighbors shifts their ranks, so
// the FIB entries that hold those ranks move with them.
func (nd *Node) addPort(id NodeID, p *port) {
	if len(nd.neighbors) == MaxDegree {
		panic(fmt.Sprintf("netsim: node %d: more than %d neighbors", nd.id, MaxDegree))
	}
	i, _ := slices.BinarySearch(nd.neighbors, id)
	nd.neighbors = slices.Insert(nd.neighbors, i, id)
	nd.ports = slices.Insert(nd.ports, i, p)
	if i == len(nd.ports)-1 {
		return
	}
	for dst, s := range nd.fib {
		if s > fibSlot(i) { // rank ≥ i
			nd.fib[dst] = s + 1
		}
	}
}

// fibGet returns the rank of the FIB entry for dst, or noPort.
func (nd *Node) fibGet(dst NodeID) int32 {
	if int(dst) < len(nd.fib) && dst >= 0 {
		return int32(nd.fib[dst]) - 1
	}
	return noPort
}

// fibSet writes the FIB entry for dst, growing the table on first sight of
// a high destination ID. The first route on any node sizes the FIB to the
// whole network (every destination gets an entry eventually), and growth
// past that doubles, so convergence on a large graph never pays a
// per-destination grow-and-copy.
func (nd *Node) fibSet(dst NodeID, rank int32) {
	if int(dst) >= len(nd.fib) {
		n := int(dst) + 1
		if n < 2*len(nd.fib) {
			n = 2 * len(nd.fib)
		}
		if full := len(nd.net.nodes); n < full {
			n = full
		}
		grown := make([]fibSlot, n)
		copy(grown, nd.fib)
		nd.fib = grown
	}
	nd.fib[dst] = fibSlot(rank + 1)
}

// LinkUpTo reports whether the link to the neighbor is currently up.
// It returns false for nodes that are not neighbors.
func (nd *Node) LinkUpTo(neighbor NodeID) bool {
	p := nd.portTo(neighbor)
	return p != nil && !p.link.down
}

// AttachProtocol binds a protocol instance to the node. It must be called
// before Network.Start.
func (nd *Node) AttachProtocol(p Protocol) {
	if nd.net.started {
		panic("netsim: AttachProtocol after Start")
	}
	nd.proto = p
}

// Protocol returns the attached protocol, or nil.
func (nd *Node) Protocol() Protocol { return nd.proto }

// SetRoute installs nextHop as the forwarding entry for dst. nextHop must
// be a directly connected neighbor.
func (nd *Node) SetRoute(dst, nextHop NodeID) {
	r := nd.Rank(nextHop)
	if r == noPort {
		panic(fmt.Sprintf("netsim: node %d: next hop %d is not a neighbor", nd.id, nextHop))
	}
	prev := nd.fibGet(dst)
	if prev == r {
		return
	}
	ex := nd.ctx()
	nd.fluidDirty(ex, dst)
	nd.fibSet(dst, r)
	ex.met.Inc(obs.FIBChanges)
	ex.routeChanged(ex.sim.Now(), nd.id, dst, nextHop, nd.neighborAt(prev), false)
}

// fluidDirty settles fluid traffic for dst against the entry in force
// while it accrued, before the forwarding graph changes underneath it —
// immediately in sequential/coordinator contexts, or deferred to the next
// barrier from a shard window (the FlowSet runs only on the coordinator).
func (nd *Node) fluidDirty(ex *exec, dst NodeID) {
	if nd.net.flows == nil {
		return
	}
	if ex.id >= 0 {
		ex.dirty = append(ex.dirty, dirtyRoute{node: nd.id, dst: dst})
		return
	}
	nd.net.flows.fibChanged(nd.id, dst)
}

// ClearRoute removes the forwarding entry for dst, if any.
func (nd *Node) ClearRoute(dst NodeID) {
	prev := nd.fibGet(dst)
	if prev == noPort {
		return
	}
	ex := nd.ctx()
	nd.fluidDirty(ex, dst)
	nd.fibSet(dst, noPort)
	ex.met.Inc(obs.FIBRemovals)
	ex.routeChanged(ex.sim.Now(), nd.id, dst, 0, nd.neighbors[prev], true)
}

// NextHop returns the current forwarding entry for dst.
func (nd *Node) NextHop(dst NodeID) (NodeID, bool) {
	nh := nd.neighborAt(nd.fibGet(dst))
	return nh, nh != noRoute
}

// SetBackupRoutes installs precomputed protection next hops for dst, in
// preference order — the "alternate path always ready at the line card" of
// the paper's related work ([1] IGP fast reroute, [27] emergency exits).
// They are consulted only when the primary next hop is unusable (link
// physically down, or route withdrawn) and are not touched by routing
// protocols. The first backup whose link is up wins.
func (nd *Node) SetBackupRoutes(dst NodeID, nextHops []NodeID) {
	for _, nh := range nextHops {
		if nd.portTo(nh) == nil {
			panic(fmt.Sprintf("netsim: node %d: backup next hop %d is not a neighbor", nd.id, nh))
		}
	}
	if nd.backup == nil {
		nd.backup = make(map[NodeID][]NodeID)
	}
	nd.backup[dst] = nextHops
}

// ClearBackupRoutes removes the protection entries for dst, if any.
func (nd *Node) ClearBackupRoutes(dst NodeID) { delete(nd.backup, dst) }

// SetMultipath installs an equal-cost multipath set for dst. Flows are
// hashed across the set (per source/destination pair, so a flow's packets
// stay ordered); next hops with down links are skipped. SetRoute still
// controls the canonical single next hop used by WalkPath and convergence
// metrics. An empty or single-entry set clears multipath forwarding.
func (nd *Node) SetMultipath(dst NodeID, nextHops []NodeID) {
	for _, nh := range nextHops {
		if nd.portTo(nh) == nil {
			panic(fmt.Sprintf("netsim: node %d: multipath next hop %d is not a neighbor", nd.id, nh))
		}
	}
	if len(nextHops) >= 2 || nd.multi[dst] != nil {
		nd.fluidDirty(nd.ctx(), dst)
	}
	if len(nextHops) < 2 {
		delete(nd.multi, dst)
		return
	}
	if nd.multi == nil {
		nd.multi = make(map[NodeID][]NodeID)
	}
	nd.multi[dst] = nextHops
}

// Multipath returns the equal-cost set for dst (nil when single-path).
// The slice is owned by the node; callers must not modify it.
func (nd *Node) Multipath(dst NodeID) []NodeID { return nd.multi[dst] }

// flowHash gives a stable per-flow starting index into an ECMP set, using
// a splitmix64-style finalizer for good avalanche in the low bits.
func flowHash(src, dst NodeID, n int) int {
	h := uint64(src)<<32 ^ uint64(uint32(dst))
	h ^= h >> 30
	h *= 0xBF58_476D_1CE4_E5B9
	h ^= h >> 27
	h *= 0x94D0_49BB_1331_11EB
	h ^= h >> 31
	return int(h % uint64(n))
}

// BackupRoutes returns the protection next hops for dst in preference
// order. The slice is owned by the node; callers must not modify it.
func (nd *Node) BackupRoutes(dst NodeID) []NodeID { return nd.backup[dst] }

// SendControl transmits a routing message to a directly connected neighbor.
// The message rides the link like any packet (serialization, propagation,
// loss on a failed link) but is exempt from the data queue cap.
func (nd *Node) SendControl(to NodeID, msg Message) {
	p := nd.portTo(to)
	if p == nil {
		panic(fmt.Sprintf("netsim: node %d: SendControl to non-neighbor %d", nd.id, to))
	}
	ex := nd.ctx()
	pkt := ex.newPacket()
	pkt.Src, pkt.Dst = nd.id, to
	pkt.Size = msg.SizeBytes()
	pkt.Payload = msg
	ex.met.Inc(obs.ControlSent)
	ex.met.Add(obs.ControlBytes, uint64(pkt.Size))
	p.send(ex, pkt)
}

// SendData injects a new data packet addressed to dst and forwards it
// according to the node's FIB.
func (nd *Node) SendData(dst NodeID, size, ttl int) {
	ex := nd.ctx()
	pkt := ex.newPacket()
	pkt.Src, pkt.Dst = nd.id, dst
	pkt.TTL = ttl
	pkt.Size = size
	ex.met.Inc(obs.PacketsSent)
	if nd.net.cfg.RecordHops {
		pkt.Trace = append(pkt.Trace, nd.id)
	}
	nd.forward(ex, pkt)
}

// receive handles a packet arriving from a neighbor. It always executes
// on the node's own shard (propagation events run on the receiving side).
func (nd *Node) receive(from NodeID, pkt *Packet) {
	ex := nd.exec
	if pkt.Control() {
		ex.met.Inc(obs.ControlReceived)
		if nd.proto != nil {
			nd.proto.HandleMessage(from, pkt.Payload)
		}
		ex.releasePooled(pkt)
		ex.recycle(pkt)
		return
	}
	pkt.HopCount++
	if nd.net.cfg.RecordHops {
		pkt.Trace = append(pkt.Trace, nd.id)
	}
	if pkt.Dst == nd.id {
		ex.met.Inc(obs.PacketsDelivered)
		ex.packetDelivered(ex.sim.Now(), pkt)
		ex.recycle(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		nd.net.drop(ex, nd.id, pkt, DropTTLExpired)
		return
	}
	nd.forward(ex, pkt)
}

// forward looks up the FIB and queues the packet on the corresponding
// output port. When the primary is unusable — its link is physically down,
// or the control plane has withdrawn the route entirely — and a protection
// entry exists, the packet deflects to the backup immediately (fast
// reroute: the backup lives below the routing table, like a line-card
// protection entry).
func (nd *Node) forward(ex *exec, pkt *Packet) {
	var p *port
	if nd.multi != nil {
		if set := nd.multi[pkt.Dst]; len(set) > 1 {
			// ECMP: start at the flow's hash slot and take the first next hop
			// whose link is up.
			start := flowHash(pkt.Src, pkt.Dst, len(set))
			for i := range set {
				if mp := nd.portTo(set[(start+i)%len(set)]); mp != nil && !mp.link.down {
					p = mp
					break
				}
			}
		}
	}
	if p == nil {
		if r := nd.fibGet(pkt.Dst); r != noPort {
			p = nd.ports[r]
		}
	}
	if p == nil || p.link.down {
		if nd.backup != nil {
			for _, alt := range nd.backup[pkt.Dst] {
				if ap := nd.portTo(alt); ap != nil && !ap.link.down {
					p = ap
					break
				}
			}
		}
	}
	if p == nil {
		nd.net.drop(ex, nd.id, pkt, DropNoRoute)
		return
	}
	ex.met.Inc(obs.PacketsForwarded)
	p.send(ex, pkt)
}

// CBR generates constant-bit-rate data traffic from one node to a fixed
// destination: the paper's single sender workload (§5).
type CBR struct {
	node     *Node
	dst      NodeID
	interval time.Duration
	size     int
	ttl      int
	stopAt   time.Duration
	event    sim.Event
}

var _ sim.Handler = (*CBR)(nil)

// StartCBR begins sending size-byte packets with the given TTL from node to
// dst every interval, from virtual time start until stop (exclusive).
func StartCBR(node *Node, dst NodeID, interval time.Duration, size, ttl int, start, stop time.Duration) *CBR {
	if interval <= 0 {
		panic("netsim: CBR interval must be positive")
	}
	c := &CBR{node: node, dst: dst, interval: interval, size: size, ttl: ttl, stopAt: stop}
	c.event = node.Sim().ScheduleHandlerAt(start, c, 0, nil)
	return c
}

// Stop halts the source.
func (c *CBR) Stop() {
	c.event.Cancel()
	c.event = sim.Event{}
}

// HandleEvent implements sim.Handler: one tick sends one packet and
// schedules the next, allocation-free.
func (c *CBR) HandleEvent(int32, any) {
	now := c.node.Sim().Now()
	if now >= c.stopAt {
		c.event = sim.Event{}
		return
	}
	c.node.SendData(c.dst, c.size, c.ttl)
	c.event = c.node.Sim().ScheduleHandler(c.interval, c, 0, nil)
}
