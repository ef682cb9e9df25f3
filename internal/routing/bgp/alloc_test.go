package bgp

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// discard is a protocol that ignores everything it receives, so alloc
// guards measure only the speaker under test (capture would allocate
// clones of every update).
type discard struct{}

func (discard) Start()                                      {}
func (discard) HandleMessage(netsim.NodeID, netsim.Message) {}
func (discard) LinkDown(netsim.NodeID)                      {}
func (discard) LinkUp(netsim.NodeID)                        {}

// A converged speaker's MRAI flush with nothing pending must not allocate:
// the dirty/pending scans are dense-array reads and the early-out is a
// counter check.
func TestIdleFlushAllocs(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Ring(4), netsim.DefaultConfig(), nil)
	var protos []*Protocol
	for i := 0; i < 4; i++ {
		p := New(net.Node(netsim.NodeID(i)), BGP3Config())
		net.Node(netsim.NodeID(i)).AttachProtocol(p)
		protos = append(protos, p)
	}
	net.Start()
	s.RunUntil(2 * time.Minute) // long past convergence and all MRAI timers
	p := protos[0]
	avg := testing.AllocsPerRun(100, func() { p.flushAll() })
	if avg != 0 {
		t.Errorf("idle flushAll allocates %.1f objects, want 0", avg)
	}
}

// A flush with announcements held back by a pending MRAI timer must not
// allocate either: classification walks the per-neighbor pending list in
// the reusable scratch buffers, and the list rebuild reuses its capacity.
// Nodes 3–139 stand idle: they put the injected destinations 100–138 in
// the network.
func TestHeldFlushAllocs(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(140)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), DefaultConfig())) // 30 s MRAI
	net.Node(1).AttachProtocol(discard{})
	net.Node(2).AttachProtocol(discard{})
	net.Start()
	s.RunUntil(time.Second) // initial advertisements consumed the MRAI budget
	p := protoAt(net, 0)
	for i := 0; i < 40; i += 2 {
		net.Node(2).SendControl(0, &Update{Dst: netsim.NodeID(100 + i), Path: []netsim.NodeID{2, netsim.NodeID(100 + i)}})
	}
	s.RunUntil(s.Now() + 100*time.Millisecond) // deliveries leave announcements pending behind the MRAI timer
	if ss := &p.sess[net.Node(0).Rank(1)]; ss.pendingCount == 0 || !ss.mrai.Pending() {
		t.Fatal("test setup: expected announcements held by a pending MRAI timer")
	}
	for i := 0; i < 8; i++ {
		p.flushAll() // warm the scratch buffers
	}
	avg := testing.AllocsPerRun(100, func() { p.flushAll() })
	if avg != 0 {
		t.Errorf("held flushAll allocates %.1f objects, want 0", avg)
	}
}

func protoAt(net *netsim.Network, id netsim.NodeID) *Protocol {
	return net.Node(id).Protocol().(*Protocol)
}

// Steady-state update processing runs through pooled messages, interned
// paths, and dense RIB rows, so one full announce+withdraw cycle (receive,
// recompute, flush to both neighbors) stays within a small pinned packet
// budget: the only per-message allocation left is the netsim Packet per
// control send (two injected by the test, up to three emitted by the
// speaker per half-cycle).
func TestUpdateCycleAllocBudget(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 3–9 put destination 9 in the network
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: time.Millisecond, MRAIJitter: 0}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	net.Node(1).AttachProtocol(discard{})
	net.Node(2).AttachProtocol(discard{})
	net.Start()
	s.RunUntil(time.Second)

	ann := &Update{Dst: 9, Path: []netsim.NodeID{2, 9}}
	wd := &Update{Withdrawn: []netsim.NodeID{9}}
	cycle := func() {
		net.Node(2).SendControl(0, ann)
		s.Run()
		net.Node(2).SendControl(0, wd)
		s.Run()
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the intern table, pools, and event arena
	}
	const budget = 8
	avg := testing.AllocsPerRun(200, cycle)
	if avg > budget {
		t.Errorf("announce+withdraw cycle allocates %.1f objects, want ≤ %d", avg, budget)
	}
}
