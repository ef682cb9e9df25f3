package dbf

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/routing/conformance"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func build(t *testing.T, seed int64, g *topology.Graph) (*sim.Simulator, *netsim.Network) {
	t.Helper()
	return conformance.Build(seed, g, netsim.DefaultConfig(), nil, Factory(routing.DefaultVectorConfig()))
}

func TestConvergesOnLine(t *testing.T) {
	g := topology.Line(5)
	s, net := build(t, 1, g)
	s.RunUntil(60 * time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestConvergesOnMesh(t *testing.T) {
	m, err := topology.NewMesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, net := build(t, 2, m.Graph)
	s.RunUntil(120 * time.Second)
	conformance.AssertShortestPaths(t, net, m.Graph)
}

func TestReroutesAfterFailure(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 3, g)
	s.RunUntil(120 * time.Second)
	conformance.AssertShortestPaths(t, net, g)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestRecoversAfterRestore(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 4, g)
	s.RunUntil(120 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

// TestInstantSwitchover is the paper's §4.1 claim: with a cached alternate
// available, DBF repairs the forwarding table the instant the failure is
// detected, without waiting for any update exchange.
func TestInstantSwitchover(t *testing.T) {
	// Diamond: 0-1, 0-2, 1-3, 2-3. Node 0 reaches 3 via 1 or 2 at equal
	// cost; when the 0-1 link dies, 0 must switch to 2 immediately.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cfg := netsim.DefaultConfig()
	s, net := conformance.Build(5, g, cfg, nil, Factory(routing.DefaultVectorConfig()))
	s.RunUntil(120 * time.Second)

	nh, ok := net.Node(0).NextHop(3)
	if !ok {
		t.Fatal("no route 0→3 after warm-up")
	}
	failed := nh
	alternate := netsim.NodeID(3) - failed // the other of {1, 2}

	net.FailLink(0, failed)
	// Advance exactly to the detection instant plus one event.
	s.RunUntil(s.Now() + cfg.DetectDelay)
	nh, ok = net.Node(0).NextHop(3)
	if !ok {
		t.Fatal("DBF lost the route instead of switching to the cached alternate")
	}
	if nh != alternate {
		t.Errorf("next hop after failure = %d, want %d", nh, alternate)
	}
}

// TestPoisonedCacheGivesNoAlternate reproduces the §5.1 degree-4 effect: if
// every neighbor routes through us, their poisoned-reverse entries leave no
// usable alternate in the cache, so a failure blackholes traffic until the
// triggered-update cascade finds a detour.
func TestPoisonedCacheGivesNoAlternate(t *testing.T) {
	// Line 0-1-2: node 1 reaches 2 via 2, and node 0's entries are
	// poisoned. When link 1-2 dies, node 1 must have no route at the
	// detection instant.
	g := topology.Line(3)
	cfg := netsim.DefaultConfig()
	s, net := conformance.Build(6, g, cfg, nil, Factory(routing.DefaultVectorConfig()))
	s.RunUntil(120 * time.Second)
	net.FailLink(1, 2)
	s.RunUntil(s.Now() + cfg.DetectDelay)
	if _, ok := net.Node(1).NextHop(2); ok {
		t.Error("node 1 kept a route to 2 despite all cached alternates being poisoned")
	}
}

func TestCountsToNextBestNotInfinity(t *testing.T) {
	// The paper's §6 observation: with redundancy, DBF counts to the
	// next-best path instead of counting to infinity. Ring of 6: after the
	// 0-1 failure, 0's metric to 1 must settle at 5 (the long way), not 16.
	g := topology.Ring(6)
	s, net := build(t, 7, g)
	s.RunUntil(120 * time.Second)
	p := net.Node(0).Protocol().(*Protocol)
	if m, _, ok := p.Table(1); !ok || m != 1 {
		t.Fatalf("pre-failure metric to 1 = %d, want 1", m)
	}
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	m, nh, ok := p.Table(1)
	if !ok || m != 5 {
		t.Errorf("post-failure metric to 1 = %d (ok=%v), want 5", m, ok)
	}
	if nh != 5 {
		t.Errorf("post-failure next hop = %d, want 5 (the other ring direction)", nh)
	}
}

func TestDetachedDestinationWithdrawn(t *testing.T) {
	g := topology.Line(3)
	s, net := build(t, 8, g)
	s.RunUntil(60 * time.Second)
	net.FailLink(1, 2)
	s.RunUntil(s.Now() + 150*time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Error("node 0 still routes to detached node 2")
	}
}

func TestIgnoresForeignMessages(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), routing.DefaultVectorConfig()))
	net.Node(1).AttachProtocol(New(net.Node(1), routing.DefaultVectorConfig()))
	net.Start()
	net.Node(1).SendControl(0, fakeMsg{})
	s.RunUntil(time.Second)
}

type fakeMsg struct{}

func (fakeMsg) SizeBytes() int { return 10 }

func TestStableNextHopUnderEqualCost(t *testing.T) {
	// With two equal-cost next hops, the chosen one must not flap between
	// periodic updates.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	s, net := build(t, 9, g)
	s.RunUntil(60 * time.Second)
	nh1, ok := net.Node(0).NextHop(3)
	if !ok {
		t.Fatal("no route after warm-up")
	}
	s.RunUntil(300 * time.Second)
	nh2, ok := net.Node(0).NextHop(3)
	if !ok || nh1 != nh2 {
		t.Errorf("equal-cost next hop flapped: %d → %d", nh1, nh2)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		g := topology.Ring(8)
		s, net := build(t, 42, g)
		s.RunUntil(60 * time.Second)
		net.FailLink(0, 1)
		s.RunUntil(120 * time.Second)
		return net.Metrics().Get(obs.ControlSent) + net.Metrics().Get(obs.ControlBytes)
	}
	if run() != run() {
		t.Error("identical seeds produced different control traffic")
	}
}

func TestECMPInstallsEqualCostNeighbors(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cfg := routing.DefaultVectorConfig()
	cfg.ECMP = true
	s, net := conformance.Build(10, g, netsim.DefaultConfig(), nil, Factory(cfg))
	s.RunUntil(120 * time.Second)
	if nd := net.Node(0); !nd.ForwardsVia(3, 1) || !nd.ForwardsVia(3, 2) {
		t.Errorf("node 0 forwards 3's packets via 1: %v, via 2: %v; want both equal-cost next hops",
			nd.ForwardsVia(3, 1), nd.ForwardsVia(3, 2))
	}
	conformance.AssertShortestPaths(t, net, g)

	net.FailLink(1, 3)
	s.RunUntil(s.Now() + 60*time.Second)
	if net.Node(0).ForwardsVia(3, 1) {
		t.Error("node 0 still forwards 3's packets via 1 after 1-3 failed")
	}
}

// silent is a neighbor that runs no routing protocol: it never
// re-advertises, so whatever it once announced ages out.
type silent struct{}

func (silent) Start()                                      {}
func (silent) HandleMessage(netsim.NodeID, netsim.Message) {}
func (silent) LinkDown(netsim.NodeID)                      {}
func (silent) LinkUp(netsim.NodeID)                        {}

// TestNeighborTimeout: a neighbor that stays silent past Timeout loses its
// cached vector, and routes through it fail over to the cached
// alternates.
func TestNeighborTimeout(t *testing.T) {
	// 0-1, 0-2, 2-3. Node 1 (silent) once claims 3 at metric 0, which
	// beats the real path via 2 (metric 2 against 1).
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	s := sim.New(1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := routing.DefaultVectorConfig()
	for _, id := range []netsim.NodeID{0, 2, 3} {
		net.Node(id).AttachProtocol(New(net.Node(id), cfg))
	}
	net.Node(1).AttachProtocol(silent{})
	net.Start()
	net.Node(1).SendControl(0, cfg.PackEntries([]routing.VectorEntry{{Dst: 3, Metric: 0}})[0])
	s.RunUntil(10 * time.Second)
	p := net.Node(0).Protocol().(*Protocol)
	if m, nh, ok := p.Table(3); !ok || m != 1 || nh != 1 {
		t.Fatalf("route to 3 before the timeout = metric %d via %d (ok=%v), want 1 via 1", m, nh, ok)
	}
	s.RunUntil(cfg.Timeout + 2*time.Second)
	if m, nh, ok := p.Table(3); !ok || m != 2 || nh != 2 {
		t.Errorf("route to 3 after the timeout = metric %d via %d (ok=%v), want 2 via 2", m, nh, ok)
	}
	if nh, ok := net.Node(0).NextHop(3); !ok || nh != 2 {
		t.Errorf("FIB next hop to 3 after the timeout = %d (ok=%v), want 2", nh, ok)
	}
	if _, ok := p.cacheGet(int(net.Node(0).Rank(1)), 3); ok {
		t.Error("silent neighbor's cached vector survived the timeout")
	}
}
