package netsim

import (
	"fmt"
	"sort"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// Config sets the physical parameters of every link in the network,
// matching the paper's §5 simulation setup.
type Config struct {
	// LinkRateBps is the transmission rate in bits per second.
	LinkRateBps int64
	// LinkDelay is the propagation delay.
	LinkDelay time.Duration
	// DetectDelay is how long after a link fails (or recovers) the attached
	// nodes' routing protocols are notified.
	DetectDelay time.Duration
	// QueueLimit is the maximum number of data packets queued per output
	// port, excluding the one in transmission. Control packets are exempt
	// (see DESIGN.md).
	QueueLimit int
	// RecordHops makes every packet record the nodes it visits, for loop
	// analysis. It costs memory; leave it off for bulk trials.
	RecordHops bool
}

// DefaultConfig returns the paper's link parameters: 10 Mbps, 1 ms
// propagation delay, 50 ms failure detection, 20-packet queues.
func DefaultConfig() Config {
	return Config{
		LinkRateBps: 10_000_000,
		LinkDelay:   time.Millisecond,
		DetectDelay: 50 * time.Millisecond,
		QueueLimit:  20,
	}
}

// serCacheMax bounds the memoized serialization table; packets larger than
// this (none in the study — jumbo frames end at 9 KB) compute directly.
const serCacheMax = 1 << 16

// Network is a set of nodes and links driven by a Simulator. Build one
// with New or FromGraph, attach protocols, then Start it.
type Network struct {
	sim      *sim.Simulator
	cfg      Config
	nodes    []*Node
	links    map[topology.Edge]*Link
	linkList []*Link // sorted by edge; nil when invalidated by Connect
	observer Observer
	started  bool
	// walkSeen/walkEpoch are WalkPath's loop-detection scratch; the epoch
	// makes reuse O(1) instead of clearing per walk.
	walkSeen  []uint32
	walkEpoch uint32
	// flows is the optional fluid/hybrid traffic engine (see fluid.go);
	// nil when every flow is packet-simulated.
	flows *FlowSet
	// root is the sequential/coordinator execution context; its counter
	// set is the network's (see Metrics).
	root *exec
	// Sharded-mode state (see shard.go); all nil/false in sequential runs.
	shards       []*exec
	assign       []int32
	coord        *sim.Coordinator
	windowActive bool
	filter       RouteFilter // the observer, when it elides some route events
	obsSeq       []obsRef    // scratch for the merged replay order (rewind + step)
	drainIdx     []int       // scratch for the outbox drain k-way merge
}

// New returns an empty network using the given engine and link parameters.
// A nil observer is replaced with NopObserver.
func New(s *sim.Simulator, cfg Config, o Observer) *Network {
	if cfg.LinkRateBps <= 0 {
		panic("netsim: LinkRateBps must be positive")
	}
	if o == nil {
		o = NopObserver{}
	}
	n := &Network{sim: s, cfg: cfg, links: make(map[topology.Edge]*Link), observer: o}
	n.root = &exec{id: -1, net: n, sim: s, met: obs.NewMetrics()}
	return n
}

// FromGraph returns a network with one node per graph node and one link per
// graph edge. Neighbor lists, their parallel port tables, and the link map
// are presized from the graph's degrees, so building a 100k-node network
// costs memory linear in its edges and does not pay for repeated regrowth.
func FromGraph(s *sim.Simulator, g *topology.Graph, cfg Config, o Observer) *Network {
	n := New(s, cfg, o)
	edges := g.Edges()
	n.nodes = make([]*Node, 0, g.Len())
	n.links = make(map[topology.Edge]*Link, len(edges))
	for i := 0; i < g.Len(); i++ {
		node := n.AddNode()
		if deg := len(g.Neighbors(topology.NodeID(i))); deg > 0 {
			node.neighbors = make([]NodeID, 0, deg)
			node.ports = make([]*port, 0, deg)
		}
	}
	for _, e := range edges {
		n.Connect(e.A, e.B)
	}
	return n
}

// Sim returns the driving simulator.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Metrics returns the network's packet ledger: every packet fate, control
// message and forwarding change is counted there once. Counting is
// strictly passive (no events scheduled, no randomness consumed). In a
// sharded run each shard counts into its own set until FinishSharding
// folds them in.
func (n *Network) Metrics() *obs.Metrics { return n.root.met }

// Note raises a timeline record through the observer stream. Harness code
// (scenario events, fluid ticks) runs on the control simulator, whose
// context calls the observer at once.
func (n *Network) Note(r obs.Record) { n.root.note(r) }

// note raises a harness record stamped with the current time; -1 marks an
// unused node field.
func (n *Network) note(kind obs.Kind, node, peer, dst NodeID) {
	n.Note(obs.Record{At: n.sim.Now(), Kind: kind, Node: int32(node), Peer: int32(peer), Dst: int32(dst)})
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// AddNode creates a new node and returns it. The topology is frozen once
// the network starts: protocols size their tables to it and store neighbor
// ranks, which a later node or link would invalidate.
func (n *Network) AddNode() *Node {
	if n.started {
		panic("netsim: AddNode after Start")
	}
	node := &Node{
		id:   NodeID(len(n.nodes)),
		net:  n,
		exec: n.root,
	}
	node.rng = sim.NewStream(n.sim.Seed(), uint64(node.id))
	n.nodes = append(n.nodes, node)
	return node
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Connect creates a duplex link between a and b with the network's link
// parameters. Connecting an existing pair, or connecting after Start (see
// AddNode), panics (a model bug).
func (n *Network) Connect(a, b NodeID) *Link {
	if n.started {
		panic("netsim: Connect after Start")
	}
	e := topology.NewEdge(a, b)
	if _, dup := n.links[e]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %d-%d", a, b))
	}
	na, nb := n.nodes[a], n.nodes[b]
	l := &Link{net: n, edge: e}
	l.dir[0] = &port{owner: na, peer: nb, link: l}
	l.dir[1] = &port{owner: nb, peer: na, link: l}
	na.addPort(b, l.dir[0])
	nb.addPort(a, l.dir[1])
	n.links[e] = l
	n.linkList = nil
	return l
}

// Link returns the link between a and b, or nil when none exists.
func (n *Network) Link(a, b NodeID) *Link { return n.links[topology.NewEdge(a, b)] }

// Links returns all links sorted by edge. The result is cached between
// topology changes; callers must not modify it.
func (n *Network) Links() []*Link {
	if n.linkList != nil {
		return n.linkList
	}
	edges := make([]topology.Edge, 0, len(n.links))
	for e := range n.links {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].A != edges[j].A {
			return edges[i].A < edges[j].A
		}
		return edges[i].B < edges[j].B
	})
	out := make([]*Link, len(edges))
	for i, e := range edges {
		out[i] = n.links[e]
	}
	n.linkList = out
	return out
}

// Start invokes every attached protocol's Start in node-ID order. It must
// be called exactly once, after all nodes, links, and protocols are in
// place.
func (n *Network) Start() {
	if n.started {
		panic("netsim: Start called twice")
	}
	n.started = true
	for _, node := range n.nodes {
		if node.proto != nil {
			node.proto.Start()
		}
	}
}

// mustLink returns the a-b link; a missing link is a model bug.
func (n *Network) mustLink(op string, a, b NodeID) *Link {
	l := n.links[topology.NewEdge(a, b)]
	if l == nil {
		panic(fmt.Sprintf("netsim: %s(%d,%d): no such link", op, a, b))
	}
	return l
}

// FailLink takes the a-b link down immediately, until RestoreLink. Packets
// in flight or subsequently transmitted onto it are lost; after DetectDelay
// both ends' protocols receive LinkDown.
func (n *Network) FailLink(a, b NodeID) {
	l := n.mustLink("FailLink", a, b)
	l.failed = true
	n.syncLink(l)
}

// RestoreLink undoes FailLink: the link comes back up unless a failed
// endpoint holds it down; after DetectDelay both ends' protocols get LinkUp.
func (n *Network) RestoreLink(a, b NodeID) {
	l := n.mustLink("RestoreLink", a, b)
	l.failed = false
	n.syncLink(l)
}

// syncLink brings the link's up/down state in line with its holds — down
// while explicitly failed or an endpoint is — and reports whether it
// flipped. A flip settles fluid traffic first, is noted to the observer,
// and reaches the protocols after DetectDelay unless undone by then.
func (n *Network) syncLink(l *Link) bool {
	down := l.failed || l.endsDown > 0
	if down == l.down {
		return false
	}
	a, b := l.edge.A, l.edge.B
	if n.flows != nil {
		// Settle fluid traffic against the graph that carried it before
		// the link state flips (and demote crossing flows in hybrid mode).
		n.flows.linkChanged(a, b)
	}
	l.down = down
	kind, detected := obs.KindLinkUp, obs.KindLinkUpDetected
	if down {
		kind, detected = obs.KindLinkDown, obs.KindLinkDownDetected
	}
	n.note(kind, a, b, -1)
	n.sim.Schedule(n.cfg.DetectDelay, func() {
		if l.down != down || l.detectedDown == down {
			return // flipped back before detection, or nothing to report
		}
		l.detectedDown = down
		n.note(detected, a, b, -1)
		n.notifyLink(l, !down)
	})
	return true
}

// FailNode fails the node: every incident link goes down (with the usual
// detection delay at both ends) and stays down until RecoverNode. The
// node's protocol keeps running but is isolated — a simplification
// documented in SCENARIOS.md. FailNode on an already-failed node is a
// no-op. It returns the number of links the failure took down.
func (n *Network) FailNode(id NodeID) int {
	node := n.nodes[id]
	if node.failed {
		return 0
	}
	node.failed = true
	took := 0
	for _, p := range node.ports {
		l := p.link
		l.endsDown++
		if n.syncLink(l) {
			took++
		}
	}
	n.note(obs.KindNodeDown, id, -1, -1)
	return took
}

// RecoverNode recovers a failed node: its incident links come back up,
// except those another hold keeps down — a still-failed node at the other
// end, or an explicit FailLink awaiting its RestoreLink. A no-op for nodes
// not failed by FailNode.
func (n *Network) RecoverNode(id NodeID) {
	node := n.nodes[id]
	if !node.failed {
		return
	}
	node.failed = false
	for _, p := range node.ports {
		l := p.link
		l.endsDown--
		n.syncLink(l)
	}
	n.note(obs.KindNodeUp, id, -1, -1)
}

// lossSalt decorrelates the per-port packet-loss streams from the per-node
// jitter and per-source traffic streams sharing the simulator seed.
const lossSalt = 0x6c6f7373796c6e6b // "lossylnk"

// SetLinkLoss sets the a-b link's random packet-loss probability: every
// packet completing serialization in either direction is dropped with
// probability p, control and data traffic alike. p = 0 clears the setting.
// Each direction draws from its own per-port sim.Stream (seeded by the
// simulator seed and the directed port identity), so loss decisions depend
// only on that port's own transmission order — sharded runs stay
// bit-for-bit identical to sequential ones.
func (n *Network) SetLinkLoss(a, b NodeID, p float64) {
	l := n.mustLink("SetLinkLoss", a, b)
	for _, pt := range l.dir {
		pt.lossP = p
		if p > 0 && !pt.lossSeeded {
			pt.lossSeeded = true
			pt.lossRng = sim.NewStream(n.sim.Seed()^lossSalt,
				uint64(uint32(pt.owner.id))<<32|uint64(uint32(pt.peer.id)))
		}
	}
	n.Note(obs.Record{At: n.sim.Now(), Kind: obs.KindLinkLoss, Node: int32(a), Peer: int32(b), Dst: -1, Rate: p})
}

// CostOutLink gracefully removes the a-b link from service: both ends'
// protocols are notified immediately (maintenance is announced, so there is
// no detection delay) while the link stays physically up — in-flight and
// queued packets still deliver. A no-op if the link is already down or
// costed out.
func (n *Network) CostOutLink(a, b NodeID) {
	l := n.mustLink("CostOutLink", a, b)
	if l.down || l.detectedDown {
		return
	}
	l.detectedDown = true
	n.note(obs.KindCostOut, a, b, -1)
	n.notifyLink(l, false)
}

// CostInLink returns a costed-out a-b link to service, notifying both ends'
// protocols immediately. A no-op unless the link is up but costed out.
// (A physical failure and repair cycle clears a cost-out: the repair's
// detection restores the protocols' view.)
func (n *Network) CostInLink(a, b NodeID) {
	l := n.mustLink("CostInLink", a, b)
	if l.down || !l.detectedDown {
		return
	}
	l.detectedDown = false
	n.note(obs.KindCostIn, a, b, -1)
	n.notifyLink(l, true)
}

func (n *Network) notifyLink(l *Link, up bool) {
	for _, p := range l.dir {
		if proto := p.owner.proto; proto != nil {
			if up {
				proto.LinkUp(p.peer.id)
			} else {
				proto.LinkDown(p.peer.id)
			}
		}
	}
}

// WalkPath follows forwarding tables from src toward dst and returns the
// nodes visited, starting with src. ok is true only when the walk reaches
// dst without encountering a missing route, a loop, or a down link.
func (n *Network) WalkPath(src, dst NodeID) (path []NodeID, ok bool) {
	if len(n.walkSeen) < len(n.nodes) {
		n.walkSeen = make([]uint32, len(n.nodes))
		n.walkEpoch = 0
	}
	n.walkEpoch++
	if n.walkEpoch == 0 { // epoch wrapped: restart from a clean slate
		clear(n.walkSeen)
		n.walkEpoch = 1
	}
	epoch := n.walkEpoch
	cur := src
	for {
		path = append(path, cur)
		if cur == dst {
			return path, true
		}
		if n.walkSeen[cur] == epoch {
			return path, false // loop
		}
		n.walkSeen[cur] = epoch
		node := n.nodes[cur]
		r := node.fibGet(dst)
		if r == noPort || node.ports[r].link.down {
			return path, false
		}
		cur = node.neighbors[r]
	}
}

// serialization returns the time to clock size bytes onto a link,
// memoized per size (in the root execution context's cache; shard
// contexts carry their own, see exec.serialization).
func (n *Network) serialization(size int) time.Duration {
	return n.root.serialization(size)
}

// dropCounter maps a DropReason to its obs data-drop counter (reasons
// start at 1; index 0 is unused).
var dropCounter = [numDropReasons]obs.Counter{
	DropNoRoute:       obs.DropNoRoute,
	DropTTLExpired:    obs.DropTTLExpired,
	DropQueueOverflow: obs.DropQueueOverflow,
	DropLinkFailure:   obs.DropLinkFailure,
	DropRandomLoss:    obs.DropRandomLoss,
}

// drop accounts a lost packet in the executing shard's context ex — the
// context whose event loop is running the losing event, which for
// propagation-phase losses can differ from the shard owning `where`.
func (n *Network) drop(ex *exec, where NodeID, pkt *Packet, reason DropReason) {
	if pkt.Control() {
		ex.met.Inc(obs.ControlDropped)
	} else {
		ex.met.Inc(dropCounter[reason])
	}
	ex.packetDropped(ex.sim.Now(), where, pkt, reason)
	ex.releasePooled(pkt)
	ex.recycle(pkt)
}

// Link is a duplex link between two nodes: two independent directional
// transmitters sharing one up/down state.
type Link struct {
	net  *Network
	edge topology.Edge
	dir  [2]*port
	// down is derived (syncLink) from the two holds below it. Holds
	// compose, so link failures, node outages and churn never need to know
	// who took a link down.
	down     bool
	failed   bool  // FailLink without its RestoreLink
	endsDown uint8 // endpoints currently failed by FailNode
	// detectedDown tracks whether the attached protocols currently believe
	// the link is down, so that flaps shorter than the detection window
	// produce no notifications at all.
	detectedDown bool
}

// Edge returns the canonical node pair the link connects.
func (l *Link) Edge() topology.Edge { return l.edge }

// Up reports whether the link is currently up.
func (l *Link) Up() bool { return !l.down }

// Typed port event kinds: the wire is modeled with two typed events per
// transmission instead of two heap-allocated closures.
const (
	// portSerDone: the last bit left the transmitter.
	portSerDone int32 = iota
	// portPropDone: the last bit arrived at the far end.
	portPropDone
)

// port is one direction of a link: the transmitter owned by owner sending
// toward peer. Its output queue is a power-of-two ring buffer.
type port struct {
	owner *Node
	peer  *Node
	link  *Link
	queue []*Packet // ring; len is 0 or a power of two
	head  int       // index of the oldest queued packet
	count int       // packets in the ring
	inQ   int       // data packets in the ring
	busy  bool
	// lossP, when positive, drops each packet completing serialization
	// with that probability (scenario lossy links, SetLinkLoss). lossRng
	// is this direction's private stream, seeded on first use so
	// loss-free runs never pay for it.
	lossP      float64
	lossRng    sim.Stream
	lossSeeded bool
}

var _ sim.Handler = (*port)(nil)

// send enqueues a packet for transmission, dropping data packets when the
// data queue is full. Control packets are exempt from the cap (reliable
// transport stand-in, see DESIGN.md). ex is the caller's execution
// context (the owner's shard during windows, the root at barriers).
func (p *port) send(ex *exec, pkt *Packet) {
	if p.busy {
		if !pkt.Control() && p.inQ >= p.owner.net.cfg.QueueLimit {
			p.owner.net.drop(ex, p.owner.id, pkt, DropQueueOverflow)
			return
		}
		p.push(pkt)
		if !pkt.Control() {
			p.inQ++
			ex.met.ObserveQueueDepth(p.inQ)
		}
		return
	}
	p.transmit(pkt)
}

// transmit clocks the packet onto the wire. If the link is (or goes) down
// before the packet would arrive, the packet is lost. The serialization
// event always runs on the owning node's shard, whoever initiated the
// transmission. A data packet's serialization goes through a lane (all
// data packets of a trial have one size); control messages vary in size,
// and one lane per size would use up the simulator's lanes, so theirs
// goes through the heap.
func (p *port) transmit(pkt *Packet) {
	p.busy = true
	ex := p.owner.exec
	d := ex.serialization(pkt.Size)
	if pkt.Control() {
		ex.sim.ScheduleHandler(d, p, portSerDone, pkt)
		return
	}
	ex.sim.ScheduleFixed(d, p, portSerDone, pkt)
}

// HandleEvent implements sim.Handler: the serialization-done and
// propagation-done phases of one packet's flight. Serialization events
// run on the transmitting node's shard; propagation events on the
// receiving node's shard — when those differ, the packet crosses through
// the barrier inbox exchange with the link delay as lookahead.
func (p *port) HandleEvent(kind int32, data any) {
	pkt := data.(*Packet)
	net := p.owner.net
	switch kind {
	case portSerDone:
		ex := p.owner.exec
		p.busy = false
		if p.count > 0 {
			next := p.pop()
			if !next.Control() {
				p.inQ--
			}
			p.transmit(next)
		}
		if p.link.down {
			net.drop(ex, p.owner.id, pkt, DropLinkFailure)
			return
		}
		if p.lossP > 0 && p.lossRng.Float64() < p.lossP {
			net.drop(ex, p.owner.id, pkt, DropRandomLoss)
			return
		}
		if peer := p.peer.exec; peer != ex {
			ex.outbox[peer.id] = append(ex.outbox[peer.id],
				crossMsg{at: ex.sim.Now() + net.cfg.LinkDelay, p: p, pkt: pkt})
			return
		}
		ex.sim.ScheduleFixed(net.cfg.LinkDelay, p, portPropDone, pkt)
	case portPropDone:
		if p.link.down {
			net.drop(p.peer.exec, p.owner.id, pkt, DropLinkFailure)
			return
		}
		p.peer.receive(p.owner.id, pkt)
	}
}

// push appends to the ring, growing it when full.
func (p *port) push(pkt *Packet) {
	if p.count == len(p.queue) {
		size := 2 * len(p.queue)
		if size == 0 {
			size = 8
		}
		grown := make([]*Packet, size)
		for i := 0; i < p.count; i++ {
			grown[i] = p.queue[(p.head+i)&(len(p.queue)-1)]
		}
		p.queue = grown
		p.head = 0
	}
	p.queue[(p.head+p.count)&(len(p.queue)-1)] = pkt
	p.count++
}

// pop removes and returns the oldest queued packet.
func (p *port) pop() *Packet {
	pkt := p.queue[p.head]
	p.queue[p.head] = nil
	p.head = (p.head + 1) & (len(p.queue) - 1)
	p.count--
	return pkt
}
