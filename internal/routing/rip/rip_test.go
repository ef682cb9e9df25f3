package rip

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/routing/conformance"
	"routeconv/internal/routing/dbf"
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
	// RIP may need a full periodic cycle to find alternates.
	s.RunUntil(s.Now() + 200*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestRecoversAfterRestore(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 4, g)
	s.RunUntil(120 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 200*time.Second)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + 200*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestRecoveryViaSameNextHopReinstallsFIB(t *testing.T) {
	// Regression test: a stub node (single neighbor) whose route went to
	// infinity must get its forwarding entry back when the same next hop
	// re-advertises a finite metric.
	g := topology.Line(3) // 0-1-2; node 0 only ever routes via 1
	s, net := build(t, 11, g)
	s.RunUntil(60 * time.Second)
	net.FailLink(1, 2)
	s.RunUntil(s.Now() + 60*time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Fatal("route to 2 not poisoned")
	}
	net.RestoreLink(1, 2)
	s.RunUntil(s.Now() + 60*time.Second)
	nh, ok := net.Node(0).NextHop(2)
	if !ok || nh != 1 {
		t.Errorf("FIB entry after same-next-hop recovery = %d, %v; want via 1", nh, ok)
	}
}

func TestCountsToInfinityThenWithdraws(t *testing.T) {
	// Two nodes and a stub: when the stub's link fails, 0 and 1 must not
	// count to infinity (poison reverse prevents the two-hop loop) and the
	// route must disappear.
	g := topology.Line(3) // 0-1-2
	s, net := build(t, 5, g)
	s.RunUntil(60 * time.Second)
	net.FailLink(1, 2)
	s.RunUntil(s.Now() + 120*time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Error("node 0 still has a route to the detached node 2")
	}
	if _, ok := net.Node(1).NextHop(2); ok {
		t.Error("node 1 still has a route to the detached node 2")
	}
}

// sniffer records vector updates received by a node. Updates are pooled
// and reused after delivery, so the entries are snapshotted (via EntryAt,
// which also applies the sender's read-time poisoning) rather than
// retained.
type sniffer struct {
	updates [][]routing.VectorEntry
	froms   []routing.NodeID
}

func (s *sniffer) Start() {}
func (s *sniffer) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	if u, ok := msg.(*routing.VectorUpdate); ok {
		entries := make([]routing.VectorEntry, u.Len())
		for i := range entries {
			entries[i] = u.EntryAt(i)
		}
		s.updates = append(s.updates, entries)
		s.froms = append(s.froms, from)
	}
}
func (s *sniffer) LinkDown(netsim.NodeID) {}
func (s *sniffer) LinkUp(netsim.NodeID)   {}

// entryFor returns the most recently received metric for dst.
func (s *sniffer) entryFor(dst routing.NodeID) (int, bool) {
	metric, found := 0, false
	for _, u := range s.updates {
		for _, e := range u {
			if e.Dst == dst {
				metric, found = int(e.Metric), true
			}
		}
	}
	return metric, found
}

// vectorFactories are the two distance-vector strategies over the shared
// routing.Vector core; the advertisement tests below run against both.
var vectorFactories = []struct {
	name string
	new  func(routing.VectorConfig) func(*netsim.Node) netsim.Protocol
}{
	{"rip", Factory},
	{"dbf", dbf.Factory},
}

// teachAndSniff builds line 0-1-2 with the protocol on nodes 0 and 1 and a
// sniffer on node 2, which announces itself to node 1 once at t = 1 s, and
// runs 90 s. Node 1 then routes to 2 via 2.
func teachAndSniff(cfg routing.VectorConfig, factory func(routing.VectorConfig) func(*netsim.Node) netsim.Protocol) *sniffer {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), nil)
	f := factory(cfg)
	net.Node(0).AttachProtocol(f(net.Node(0)))
	net.Node(1).AttachProtocol(f(net.Node(1)))
	sn := &sniffer{}
	net.Node(2).AttachProtocol(sn)
	net.Start()
	s.Schedule(time.Second, func() {
		net.Node(2).SendControl(1, cfg.PackEntries([]routing.VectorEntry{{Dst: 2, Metric: 0}})[0])
	})
	s.RunUntil(90 * time.Second)
	return sn
}

func TestPoisonReverse(t *testing.T) {
	// Node 1 routes to 2 via 2, so its updates to 2 must advertise
	// destination 2 at infinity.
	cfg := routing.DefaultVectorConfig()
	for _, tc := range vectorFactories {
		t.Run(tc.name, func(t *testing.T) {
			sn := teachAndSniff(cfg, tc.new)
			metric, found := sn.entryFor(2)
			if !found {
				t.Fatal("node 1 never advertised destination 2 back to node 2")
			}
			if metric != cfg.Infinity {
				t.Errorf("poisoned reverse metric = %d, want %d", metric, cfg.Infinity)
			}
			// Sanity: destination 0 must be advertised to 2 with a real metric.
			if metric, found := sn.entryFor(0); !found || metric != 1 {
				t.Errorf("metric for dst 0 advertised to node 2 = %d (found=%v), want 1", metric, found)
			}
		})
	}
}

func TestSplitHorizonWithoutPoison(t *testing.T) {
	cfg := routing.DefaultVectorConfig()
	cfg.PoisonReverse = false
	for _, tc := range vectorFactories {
		t.Run(tc.name, func(t *testing.T) {
			sn := teachAndSniff(cfg, tc.new)
			if _, found := sn.entryFor(2); found {
				t.Error("plain split horizon still advertised destination 2 back to its next hop")
			}
			if metric, found := sn.entryFor(0); !found || metric != 1 {
				t.Errorf("metric for dst 0 advertised to node 2 = %d (found=%v), want 1", metric, found)
			}
		})
	}
}

func TestRouteTimeout(t *testing.T) {
	// Node 1 (a sniffer) announces destination 9 once, then goes silent:
	// node 0 must expire the route after the 180 s timeout.
	s := sim.New(1)
	g := topology.NewGraph(10)
	g.AddEdge(0, 1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := routing.DefaultVectorConfig()
	p := New(net.Node(0), cfg)
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(&sniffer{})
	net.Start()
	net.Node(1).SendControl(0, cfg.PackEntries([]routing.VectorEntry{{Dst: 9, Metric: 3}})[0])
	s.RunUntil(10 * time.Second)
	if nh, ok := net.Node(0).NextHop(9); !ok || nh != 1 {
		t.Fatalf("route to 9 = %d, %v; want via 1", nh, ok)
	}
	if metric, _, ok := p.Table(9); !ok || metric != 4 {
		t.Fatalf("table metric for 9 = %d, want 4", metric)
	}
	s.RunUntil(10*time.Second + cfg.Timeout + 2*time.Second)
	if _, ok := net.Node(0).NextHop(9); ok {
		t.Error("route to 9 still installed after timeout")
	}
	if metric, _, ok := p.Table(9); ok && metric != cfg.Infinity {
		t.Errorf("table metric after timeout = %d, want %d", metric, cfg.Infinity)
	}
	// After the garbage-collection time the entry disappears entirely.
	s.RunUntil(10*time.Second + cfg.Timeout + cfg.GCTime + 5*time.Second)
	if _, _, ok := p.Table(9); ok {
		t.Error("table entry for 9 not garbage-collected")
	}
}

// A deadline is stored as the first housekeeping tick at or after it, so a
// route must go at exactly the tick whose instant reaches its deadline: the
// tick itself when the deadline lands on one, the next when it lands 1 ns
// past. The network starts off the second (ticks at start + k s), so tick
// indices counted from time 0 instead of from start fail the on-tick
// cases, and a deadline rounded down fails the 1 ns cases. Expiry is read
// from the FIB; deletion, GCTime after a poison from the next hop, from
// the table.
func TestExpiryTickBoundary(t *testing.T) {
	const start = 300 * time.Millisecond
	tickAt := func(k int) time.Duration { return start + time.Duration(k)*time.Second }
	cfg := routing.DefaultVectorConfig() // Timeout 180 s, GCTime 120 s: whole ticks
	for _, tc := range []struct {
		name   string
		learn  time.Duration // node 1 advertises destination 9
		poison time.Duration // node 1 withdraws it (0: never)
		tick   int           // the route expires (or is deleted) at this tick
	}{
		{"expiry on a tick", tickAt(5), 0, 5 + 180},
		{"expiry 1ns after a tick", tickAt(5) + 1, 0, 6 + 180},
		{"deletion on a tick", tickAt(5), tickAt(10), 10 + 120},
		{"deletion 1ns after a tick", tickAt(5), tickAt(10) + 1, 11 + 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			g := topology.NewGraph(10)
			g.AddEdge(0, 1)
			net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
			p := New(net.Node(0), cfg)
			net.Node(0).AttachProtocol(p)
			net.Node(1).AttachProtocol(&sniffer{})
			advertise := func(metric int32) func() {
				return func() {
					p.HandleMessage(1, cfg.PackEntries([]routing.VectorEntry{{Dst: 9, Metric: metric}})[0])
				}
			}
			s.ScheduleAt(start, net.Start)
			s.ScheduleAt(tc.learn, advertise(3))
			if tc.poison > 0 {
				s.ScheduleAt(tc.poison, advertise(int32(cfg.Infinity)))
			}
			present := func() bool {
				if tc.poison > 0 {
					_, _, ok := p.Table(9)
					return ok
				}
				_, ok := net.Node(0).NextHop(9)
				return ok
			}
			s.RunUntil(tickAt(tc.tick - 1))
			if !present() {
				t.Errorf("route to 9 gone at tick %d, want it kept until tick %d", tc.tick-1, tc.tick)
			}
			s.RunUntil(tickAt(tc.tick))
			if present() {
				t.Errorf("route to 9 still there at tick %d", tc.tick)
			}
		})
	}
}

func TestTriggeredUpdatePropagatesFailureFast(t *testing.T) {
	// On a line, a link failure at one end must poison routes at the other
	// end within a few damping intervals — far faster than the periodic
	// 30 s cycle.
	g := topology.Line(5)
	s, net := build(t, 6, g)
	s.RunUntil(120 * time.Second)
	start := s.Now()
	net.FailLink(3, 4)
	for s.Now() < start+25*time.Second {
		if !s.Step() {
			break
		}
		if _, ok := net.Node(0).NextHop(4); !ok {
			break
		}
	}
	if _, ok := net.Node(0).NextHop(4); ok {
		t.Error("node 0 still routes to 4 25 s after failure; triggered updates not propagating")
	}
}

func TestIgnoresForeignMessages(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	p := New(net.Node(0), routing.DefaultVectorConfig())
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(&sniffer{})
	net.Start()
	net.Node(1).SendControl(0, fakeMsg{})
	s.RunUntil(time.Second) // must not panic
}

type fakeMsg struct{}

func (fakeMsg) SizeBytes() int { return 10 }

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
