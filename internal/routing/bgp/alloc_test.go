package bgp

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
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

// Steady-state update processing runs through pooled messages and
// packets, interned paths, and dense RIB rows, so one full
// announce+withdraw cycle (receive, recompute, flush to both neighbors)
// allocates nothing, even though the test's hand-built announcement
// carries elements its receiver interns.
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
		cycle() // warm the path table, pools, and event arena
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("announce+withdraw cycle allocates %.1f objects, want 0", avg)
	}
}

// Prepending to a path the table already holds is one map probe: it
// allocates nothing.
func TestPrependKnownPathAllocs(t *testing.T) {
	tab := newPathTable()
	tail := tab.intern([]routing.NodeID{3, 5, 9})
	want := tab.prepend(1, tail)
	var got pathID
	avg := testing.AllocsPerRun(100, func() { got = tab.prepend(1, tail) })
	if avg != 0 {
		t.Errorf("prepend of a known path allocates %.1f objects, want 0", avg)
	}
	if got != want || tab.cells[got].len != 4 {
		t.Errorf("prepend = path %d of length %d, want path %d of length 4", got, tab.cells[got].len, want)
	}
}

// A speaker receiving updates from a neighbor in its own execution context
// takes the announced path's ID as is: in steady state, a cycle of two
// alternating announcements — receive, recompute, flush to both neighbors
// — allocates nothing.
func TestSameContextReceiveAllocs(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 3–9 put destinations 7 and 9 in the network
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), Config{MRAI: time.Millisecond}))
	net.Node(1).AttachProtocol(discard{})
	net.Node(2).AttachProtocol(discard{})
	net.Start()
	s.RunUntil(time.Second)
	p := protoAt(net, 0)
	short, long := p.paths.intern([]routing.NodeID{2, 9}), p.paths.intern([]routing.NodeID{2, 7, 9})
	announce := func(id pathID) {
		u := p.paths.get() // as node 2's speaker would send it
		u.Dst, u.id = 9, id
		net.Node(2).SendControl(0, u)
		s.Run()
	}
	cycle := func() {
		announce(short)
		announce(long)
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the pools and the event arena
	}
	before := len(p.paths.cells)
	avg := testing.AllocsPerRun(200, cycle)
	if avg != 0 {
		t.Errorf("same-context announcement cycle allocates %.1f objects, want 0", avg)
	}
	if got := p.BestPath(9); !pathsEq(got, []routing.NodeID{0, 2, 7, 9}) {
		t.Errorf("BestPath(9) = %v, want [0 2 7 9]", got)
	}
	if len(p.paths.cells) != before {
		t.Errorf("steady-state cycles made %d new cells, want 0", len(p.paths.cells)-before)
	}
}
