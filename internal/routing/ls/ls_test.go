package ls

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing/conformance"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func build(t *testing.T, seed int64, g *topology.Graph) (*sim.Simulator, *netsim.Network) {
	t.Helper()
	return conformance.Build(seed, g, netsim.DefaultConfig(), nil, Factory(DefaultConfig()))
}

func TestConvergesOnLine(t *testing.T) {
	g := topology.Line(5)
	s, net := build(t, 1, g)
	s.RunUntil(10 * time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestConvergesOnMesh(t *testing.T) {
	m, err := topology.NewMesh(5, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, net := build(t, 2, m.Graph)
	s.RunUntil(10 * time.Second)
	conformance.AssertShortestPaths(t, net, m.Graph)
}

func TestConvergesFast(t *testing.T) {
	// Link-state floods immediately: convergence is bounded by flooding
	// diameter, far under a second at these link speeds.
	g := topology.Ring(10)
	s, net := build(t, 3, g)
	s.RunUntil(time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestReroutesAfterFailure(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 4, g)
	s.RunUntil(5 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 5*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestRecoversAfterRestore(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 5, g)
	s.RunUntil(5 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 5*time.Second)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + 5*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestDetachedDestinationCleared(t *testing.T) {
	g := topology.Line(3)
	s, net := build(t, 6, g)
	s.RunUntil(5 * time.Second)
	net.FailLink(1, 2)
	s.RunUntil(s.Now() + 5*time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Error("node 0 still routes to detached node 2")
	}
}

func TestStaleLSAIgnored(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	p := New(net.Node(0), DefaultConfig())
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(New(net.Node(1), DefaultConfig()))
	net.Start()
	s.RunUntil(time.Second)
	// Inject a stale LSA claiming node 1 has no neighbors (seq 0 < current).
	net.Node(1).SendControl(0, &Flood{LSA: LSA{Origin: 1, Seq: 0, Neighbors: nil}})
	s.RunUntil(2 * time.Second)
	if _, ok := net.Node(0).NextHop(1); !ok {
		t.Error("stale LSA overwrote fresher state")
	}
}

func TestTwoWayCheck(t *testing.T) {
	// An LSA listing a neighbor that does not list it back must not create
	// a usable edge.
	s := sim.New(1)
	g := topology.NewGraph(3)
	g.AddEdge(0, 1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	p := New(net.Node(0), DefaultConfig())
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(New(net.Node(1), DefaultConfig()))
	net.Start()
	s.RunUntil(time.Second)
	// Node 1 falsely claims adjacency to 2; 2 never speaks.
	net.Node(1).SendControl(0, &Flood{LSA: LSA{Origin: 1, Seq: 99, Neighbors: []netsim.NodeID{0, 2}}})
	s.RunUntil(2 * time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Error("one-way adjacency produced a route")
	}
}

// A flood naming a node outside [0, NetworkSize) — as origin or as a
// listed neighbor — is dropped where it is received: no panic, no
// forwarding entry, the database keeps its Start size and its earlier LSA
// for the origin, and the flood still counts as received.
func TestFloodOutsideNetworkDropped(t *testing.T) {
	const n = 3
	for _, tc := range []struct {
		name string
		lsa  LSA
		bad  netsim.NodeID
	}{
		{"origin-above", LSA{Origin: n + 4, Seq: 99, Neighbors: []netsim.NodeID{1}}, n + 4},
		{"origin-below", LSA{Origin: -1, Seq: 99, Neighbors: []netsim.NodeID{1}}, -1},
		{"neighbor-above", LSA{Origin: 1, Seq: 99, Neighbors: []netsim.NodeID{0, 2, n + 4}}, n + 4},
		{"neighbor-below", LSA{Origin: 1, Seq: 99, Neighbors: []netsim.NodeID{-1, 0, 2}}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net := build(t, 1, topology.Line(n))
			met := net.Metrics()
			s.RunUntil(time.Second)
			p := net.Node(0).Protocol().(*Protocol)
			before := p.db[1]
			received := met.Get(obs.ProtoFloodsReceived)
			net.Node(1).SendControl(0, &Flood{LSA: tc.lsa})
			s.RunUntil(2 * time.Second)
			if got := met.Get(obs.ProtoFloodsReceived) - received; got != 1 {
				t.Errorf("floods received went up by %d, want 1", got)
			}
			if _, ok := net.Node(0).NextHop(tc.bad); ok {
				t.Errorf("node 0 routes to %d, outside the network", tc.bad)
			}
			if len(p.db) != n || len(p.have) != n || len(p.up) != len(net.Node(0).Neighbors()) {
				t.Errorf("tables resized: db %d, have %d, up %d", len(p.db), len(p.have), len(p.up))
			}
			if after := p.db[1]; after.Seq != before.Seq {
				t.Errorf("origin 1's LSA went from seq %d to %d: the flood was stored", before.Seq, after.Seq)
			}
		})
	}
}

func TestFloodSize(t *testing.T) {
	f := &Flood{LSA: LSA{Origin: 1, Seq: 1, Neighbors: []netsim.NodeID{2, 3}}}
	if got := f.SizeBytes(); got != headerBytes+2*neighborBytes {
		t.Errorf("SizeBytes = %d, want %d", got, headerBytes+2*neighborBytes)
	}
}

func TestIgnoresForeignMessages(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), DefaultConfig()))
	net.Node(1).AttachProtocol(New(net.Node(1), DefaultConfig()))
	net.Start()
	net.Node(1).SendControl(0, fakeMsg{})
	s.RunUntil(time.Second)
}

type fakeMsg struct{}

func (fakeMsg) SizeBytes() int { return 10 }

func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		g := topology.Ring(8)
		s, net := build(t, 42, g)
		s.RunUntil(5 * time.Second)
		net.FailLink(0, 1)
		s.RunUntil(10 * time.Second)
		return net.Metrics().Get(obs.ControlSent) + net.Metrics().Get(obs.ControlBytes)
	}
	if run() != run() {
		t.Error("identical seeds produced different control traffic")
	}
}

func TestECMPInstallsAllFirstHops(t *testing.T) {
	// Diamond: 0 reaches 3 via 1 or 2 at equal cost.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cfg := DefaultConfig()
	cfg.ECMP = true
	s, net := conformance.Build(7, g, netsim.DefaultConfig(), nil, Factory(cfg))
	s.RunUntil(5 * time.Second)
	set := net.Node(0).Multipath(3)
	if len(set) != 2 || set[0] != 1 || set[1] != 2 {
		t.Errorf("Multipath(3) = %v, want [1 2]", set)
	}
	// Single-path destinations have no ECMP set.
	if mp := net.Node(0).Multipath(1); mp != nil {
		t.Errorf("Multipath(1) = %v, want nil", mp)
	}
	conformance.AssertShortestPaths(t, net, g)
}

func TestECMPShrinksAfterFailure(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cfg := DefaultConfig()
	cfg.ECMP = true
	s, net := conformance.Build(8, g, netsim.DefaultConfig(), nil, Factory(cfg))
	s.RunUntil(5 * time.Second)
	net.FailLink(1, 3)
	s.RunUntil(s.Now() + 5*time.Second)
	if mp := net.Node(0).Multipath(3); mp != nil {
		t.Errorf("Multipath(3) after failure = %v, want nil (single path left)", mp)
	}
	if nh, ok := net.Node(0).NextHop(3); !ok || nh != 2 {
		t.Errorf("NextHop(3) = %d, %v; want 2", nh, ok)
	}
}
