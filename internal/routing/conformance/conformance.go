// Package conformance is the routing protocols' test support: a black-box
// battery that every protocol in the study must pass (convergence to
// shortest paths on a family of topologies, failover, repair, destination
// detachment, and determinism), plus the helpers it is built from —
// building a network with a protocol on every node and checking that the
// forwarding tables realize shortest paths. Each protocol package runs the
// battery from its own tests, so a new protocol gets the full matrix with
// one call.
package conformance

import (
	"fmt"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// Factory constructs a protocol instance for a node.
type Factory func(*netsim.Node) netsim.Protocol

// Build creates a simulator and network over g with a protocol from f
// attached to every node, and starts it.
func Build(seed int64, g *topology.Graph, cfg netsim.Config, obs netsim.Observer, f Factory) (*sim.Simulator, *netsim.Network) {
	s := sim.New(seed)
	net := netsim.FromGraph(s, g, cfg, obs)
	for i := 0; i < net.Len(); i++ {
		node := net.Node(netsim.NodeID(i))
		node.AttachProtocol(f(node))
	}
	net.Start()
	return s, net
}

// AssertShortestPaths fails the test unless, for every ordered node pair,
// following forwarding tables from src reaches dst in exactly the
// shortest-path hop count of g. Links that are down in net are removed from
// the reference graph first.
func AssertShortestPaths(t *testing.T, net *netsim.Network, g *topology.Graph) {
	t.Helper()
	ref := topology.NewGraph(g.Len())
	for _, e := range g.Edges() {
		if l := net.Link(e.A, e.B); l != nil && l.Up() {
			ref.AddEdge(e.A, e.B)
		}
	}
	var path []netsim.NodeID
	for src := 0; src < g.Len(); src++ {
		dist := ref.BFS(topology.NodeID(src))
		for dst := 0; dst < g.Len(); dst++ {
			if src == dst {
				continue
			}
			var ok bool
			path, ok = net.WalkPath(path, netsim.NodeID(src), netsim.NodeID(dst))
			if dist[dst] < 0 {
				if ok {
					t.Errorf("walk %d→%d succeeded (%v) but dst is unreachable", src, dst, path)
				}
				continue
			}
			if !ok {
				t.Errorf("walk %d→%d failed: %v", src, dst, path)
				continue
			}
			if got := len(path) - 1; got != dist[dst] {
				t.Errorf("walk %d→%d took %d hops, shortest is %d (path %v)", src, dst, got, dist[dst], path)
			}
		}
	}
}

// Params adapts the battery to a protocol's convergence timescales.
type Params struct {
	// Name labels subtests.
	Name string
	// Factory constructs the protocol under test.
	Factory Factory
	// Settle is how long the battery waits for the protocol to converge
	// after start or a topology event (covering periodic cycles, damping
	// and MRAI timers).
	Settle time.Duration
}

// namedGraph is one member of the battery's graph family.
type namedGraph struct {
	name string
	g    *topology.Graph
}

// topologies returns the named graph family the battery runs on.
func topologies(t *testing.T) []namedGraph {
	t.Helper()
	mesh44, err := topology.NewMesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mesh55, err := topology.NewMesh(5, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	return []namedGraph{
		{"line5", topology.Line(5)},
		{"ring6", topology.Ring(6)},
		{"full5", topology.Full(5)},
		{"mesh4x4d4", mesh44.Graph},
		{"mesh5x5d6", mesh55.Graph},
		{"random20", topology.Random(20, 3, 7)},
	}
}

// Run executes the whole battery.
func Run(t *testing.T, p Params) {
	t.Helper()
	t.Run("converges", func(t *testing.T) { convergesEverywhere(t, p) })
	t.Run("failover", func(t *testing.T) { failover(t, p) })
	t.Run("repair", func(t *testing.T) { repair(t, p) })
	t.Run("detach", func(t *testing.T) { detach(t, p) })
	t.Run("sequential-failures", func(t *testing.T) { sequentialFailures(t, p) })
	t.Run("deterministic", func(t *testing.T) { deterministic(t, p) })
	t.Run("delivery", func(t *testing.T) { delivery(t, p) })
}

// convergesEverywhere: from a cold start, all pairs route over shortest
// paths on every topology in the family.
func convergesEverywhere(t *testing.T, p Params) {
	for _, ng := range topologies(t) {
		g := ng.g
		t.Run(ng.name, func(t *testing.T) {
			s, net := Build(1, g, netsim.DefaultConfig(), nil, p.Factory)
			s.RunUntil(p.Settle)
			AssertShortestPaths(t, net, g)
		})
	}
}

// failover: after any single ring link fails, all pairs reconverge to the
// shortest paths of the surviving topology.
func failover(t *testing.T, p Params) {
	g := topology.Ring(6)
	for _, e := range g.Edges() {
		e := e
		t.Run(fmt.Sprintf("fail%d-%d", e.A, e.B), func(t *testing.T) {
			s, net := Build(2, g, netsim.DefaultConfig(), nil, p.Factory)
			s.RunUntil(p.Settle)
			net.FailLink(e.A, e.B)
			s.RunUntil(s.Now() + p.Settle)
			AssertShortestPaths(t, net, g)
		})
	}
}

// repair: failing and restoring a link returns the network to the original
// shortest paths.
func repair(t *testing.T, p Params) {
	g := topology.Ring(6)
	s, net := Build(3, g, netsim.DefaultConfig(), nil, p.Factory)
	s.RunUntil(p.Settle)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + p.Settle)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + p.Settle)
	AssertShortestPaths(t, net, g)
}

// detach: when a stub node's only link dies, every router must eventually
// drop its route to it (no lingering blackhole entries).
func detach(t *testing.T, p Params) {
	g := topology.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3) // triangle with stubs 3 and 4
	g.AddEdge(0, 4)
	s, net := Build(4, g, netsim.DefaultConfig(), nil, p.Factory)
	s.RunUntil(p.Settle)
	net.FailLink(2, 3)
	s.RunUntil(s.Now() + p.Settle)
	for _, n := range []netsim.NodeID{0, 1, 2, 4} {
		if _, ok := net.Node(n).NextHop(3); ok {
			t.Errorf("node %d still routes to detached node 3", n)
		}
	}
	// The rest of the network must still work.
	AssertShortestPaths(t, net, g)
}

// sequentialFailures: two failures separated in time, then full
// reconvergence on the remaining topology.
func sequentialFailures(t *testing.T, p Params) {
	m, err := topology.NewMesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph
	s, net := Build(5, g, netsim.DefaultConfig(), nil, p.Factory)
	s.RunUntil(p.Settle)
	net.FailLink(m.ID(1, 1), m.ID(1, 2))
	s.RunUntil(s.Now() + p.Settle)
	net.FailLink(m.ID(2, 1), m.ID(2, 2))
	s.RunUntil(s.Now() + p.Settle)
	AssertShortestPaths(t, net, g)
}

// deterministic: the same seed reproduces the same control-plane activity
// bit for bit.
func deterministic(t *testing.T, p Params) {
	run := func() (uint64, uint64) {
		g := topology.Ring(8)
		s, net := Build(42, g, netsim.DefaultConfig(), nil, p.Factory)
		s.RunUntil(p.Settle)
		net.FailLink(0, 1)
		s.RunUntil(s.Now() + p.Settle)
		met := net.Metrics()
		return met.Get(obs.ControlSent), met.Get(obs.ControlBytes)
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Errorf("runs diverged: %d/%d vs %d/%d control msgs/bytes", m1, b1, m2, b2)
	}
}

// delivery: a steady flow across a failover loses only a bounded window of
// packets and everything is conserved.
func delivery(t *testing.T, p Params) {
	g := topology.Ring(8)
	s, net := Build(6, g, netsim.DefaultConfig(), nil, p.Factory)
	s.RunUntil(p.Settle)
	stop := s.Now() + 2*p.Settle + 20*time.Second
	netsim.StartCBR(net.Node(0), 4, 100*time.Millisecond, 500, 64, s.Now(), stop)
	s.RunUntil(s.Now() + 10*time.Second)
	net.FailLink(1, 2) // may or may not be on the 0→4 path
	s.RunUntil(stop + p.Settle)
	met := net.Metrics()
	sent, delivered := met.Get(obs.PacketsSent), met.Get(obs.PacketsDelivered)
	if sent == 0 {
		t.Fatal("no packets sent")
	}
	var dropped uint64
	for _, c := range []obs.Counter{obs.DropNoRoute, obs.DropTTLExpired, obs.DropQueueOverflow, obs.DropLinkFailure, obs.DropRandomLoss} {
		dropped += met.Get(c)
	}
	if sent != delivered+dropped {
		t.Errorf("conservation violated: sent %d ≠ delivered %d + dropped %d", sent, delivered, dropped)
	}
	ratio := float64(delivered) / float64(sent)
	if ratio < 0.5 {
		t.Errorf("delivery ratio %.3f across one failover is implausibly low", ratio)
	}
}
