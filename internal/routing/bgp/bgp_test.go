package bgp

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing/conformance"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func build(t *testing.T, seed int64, g *topology.Graph, cfg Config) (*sim.Simulator, *netsim.Network) {
	t.Helper()
	return conformance.Build(seed, g, netsim.DefaultConfig(), nil, Factory(cfg))
}

func TestConvergesOnLineBGP3(t *testing.T) {
	g := topology.Line(5)
	s, net := build(t, 1, g, BGP3Config())
	s.RunUntil(60 * time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestConvergesOnMeshBGP3(t *testing.T) {
	m, err := topology.NewMesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, net := build(t, 2, m.Graph, BGP3Config())
	s.RunUntil(120 * time.Second)
	conformance.AssertShortestPaths(t, net, m.Graph)
}

func TestConvergesOnMeshSlowMRAI(t *testing.T) {
	m, err := topology.NewMesh(3, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, net := build(t, 3, m.Graph, DefaultConfig())
	s.RunUntil(390 * time.Second)
	conformance.AssertShortestPaths(t, net, m.Graph)
}

func TestReroutesAfterFailure(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 4, g, BGP3Config())
	s.RunUntil(120 * time.Second)
	conformance.AssertShortestPaths(t, net, g)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestRecoversAfterRestore(t *testing.T) {
	g := topology.Ring(6)
	s, net := build(t, 5, g, BGP3Config())
	s.RunUntil(120 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + 120*time.Second)
	conformance.AssertShortestPaths(t, net, g)
}

func TestInstantSwitchover(t *testing.T) {
	// Like DBF, BGP keeps per-neighbor alternates: on a diamond, losing
	// the best next hop switches instantly to the cached one.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	cfg := netsim.DefaultConfig()
	s, net := conformance.Build(6, g, cfg, nil, Factory(BGP3Config()))
	s.RunUntil(120 * time.Second)
	nh, ok := net.Node(0).NextHop(3)
	if !ok {
		t.Fatal("no route 0→3 after warm-up")
	}
	net.FailLink(0, nh)
	s.RunUntil(s.Now() + cfg.DetectDelay)
	got, ok := net.Node(0).NextHop(3)
	if !ok {
		t.Fatal("BGP lost the route instead of switching to the Adj-RIB-In alternate")
	}
	if got == nh {
		t.Errorf("next hop still %d after its link failed", got)
	}
}

func TestBestPath(t *testing.T) {
	g := topology.Line(4)
	s, net := build(t, 7, g, BGP3Config())
	s.RunUntil(60 * time.Second)
	p := net.Node(0).Protocol().(*Protocol)
	path := p.BestPath(3)
	want := []netsim.NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("BestPath(3) = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("BestPath(3) = %v, want %v", path, want)
		}
	}
	if p.BestPath(99) != nil {
		t.Error("BestPath of unknown destination is non-nil")
	}
}

func TestLoopedPathTreatedAsWithdrawal(t *testing.T) {
	// Feed node 0 a path that contains node 0 itself: it must not install
	// it, and an existing entry from that neighbor must be dropped.
	s := sim.New(1)
	g := topology.NewGraph(6) // idle nodes 2–5 put destination 5 in the network
	g.AddEdge(0, 1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	p := New(net.Node(0), BGP3Config())
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(&capture{})
	net.Start()
	// First a legitimate path to destination 5.
	net.Node(1).SendControl(0, &Update{Dst: 5, Path: []netsim.NodeID{1, 3, 5}})
	s.RunUntil(time.Second)
	if nh, ok := net.Node(0).NextHop(5); !ok || nh != 1 {
		t.Fatalf("route to 5 = %d, %v; want via 1", nh, ok)
	}
	// Now a looped path: node 0 appears inside it.
	net.Node(1).SendControl(0, &Update{Dst: 5, Path: []netsim.NodeID{1, 0, 5}})
	s.RunUntil(2 * time.Second)
	if _, ok := net.Node(0).NextHop(5); ok {
		t.Error("looped path was not treated as a withdrawal")
	}
	if p.BestPath(5) != nil {
		t.Error("best path survived the looped announcement")
	}
}

// capture records updates received by a node. Received updates are pooled
// (the network recycles them after HandleMessage returns), so capture
// keeps deep copies.
type capture struct {
	updates []*Update
	at      []time.Duration
	sim     *sim.Simulator
}

func (c *capture) Start() {}
func (c *capture) HandleMessage(_ netsim.NodeID, msg netsim.Message) {
	if u, ok := msg.(*Update); ok {
		clone := &Update{Dst: u.Dst}
		if u.Withdrawn != nil {
			clone.Withdrawn = append([]netsim.NodeID(nil), u.Withdrawn...)
		}
		if path := u.elems(); path != nil {
			clone.Path = append([]netsim.NodeID(nil), path...)
		}
		c.updates = append(c.updates, clone)
		if c.sim != nil {
			c.at = append(c.at, c.sim.Now())
		}
	}
}
func (c *capture) LinkDown(netsim.NodeID) {}
func (c *capture) LinkUp(netsim.NodeID)   {}

func TestMRAISpacesAnnouncements(t *testing.T) {
	// Node 0 speaks BGP to a capturing neighbor. Feeding node 0 a stream
	// of path changes from a second neighbor must produce announcements to
	// the capture spaced by at least the minimum MRAI.
	s := sim.New(1)
	g := topology.NewGraph(22) // idle nodes 3–21 put every injected ID in the network
	g.AddEdge(0, 1)            // capture
	g.AddEdge(0, 2)            // feeder
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: 10 * time.Second, MRAIJitter: 0}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	cap1 := &capture{sim: s}
	net.Node(1).AttachProtocol(cap1)
	net.Node(2).AttachProtocol(&capture{})
	net.Start()
	// Feed a new, ever-longer path for destination 9 every second.
	for i := 0; i < 20; i++ {
		i := i
		s.Schedule(time.Duration(i+1)*time.Second, func() {
			path := []netsim.NodeID{2}
			for j := 0; j < i%3; j++ {
				path = append(path, netsim.NodeID(20+j))
			}
			path = append(path, 9)
			net.Node(2).SendControl(0, &Update{Dst: 9, Path: path})
		})
	}
	s.RunUntil(60 * time.Second)

	var annAt []time.Duration
	for i, u := range cap1.updates {
		if u.Path != nil && u.Dst == 9 {
			annAt = append(annAt, cap1.at[i])
		}
	}
	if len(annAt) < 2 {
		t.Fatalf("got %d announcements for dst 9, want ≥ 2", len(annAt))
	}
	// Gaps are measured at the receiver, so allow a small tolerance for
	// queueing/serialization differences between messages.
	const tolerance = 10 * time.Millisecond
	for i := 1; i < len(annAt); i++ {
		if gap := annAt[i] - annAt[i-1]; gap < cfg.MRAI-tolerance {
			t.Errorf("announcements %v apart, want ≥ %v", gap, cfg.MRAI)
		}
	}
}

func TestWithdrawalsBypassMRAI(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 3–9 put destinations 8 and 9 in the network
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: 30 * time.Second, MRAIJitter: 0}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	cap1 := &capture{sim: s}
	net.Node(1).AttachProtocol(cap1)
	net.Node(2).AttachProtocol(&capture{})
	net.Start()
	// Feed the announcement after the session-startup MRAI window so it
	// egresses immediately, then withdraw: the withdrawal must reach node
	// 1 long before the (re-armed) MRAI timer would allow another
	// announcement.
	s.Schedule(35*time.Second, func() {
		net.Node(2).SendControl(0, &Update{Dst: 9, Path: []netsim.NodeID{2, 9}})
	})
	s.Schedule(36*time.Second, func() {
		net.Node(2).SendControl(0, &Update{Withdrawn: []netsim.NodeID{9}})
	})
	s.RunUntil(45 * time.Second)

	sawAnnounce, sawWithdraw := false, false
	var wdAt time.Duration
	for i, u := range cap1.updates {
		if u.Path != nil && u.Dst == 9 {
			sawAnnounce = true
		}
		for _, w := range u.Withdrawn {
			if w == 9 {
				sawWithdraw = true
				wdAt = cap1.at[i]
			}
		}
	}
	if !sawAnnounce {
		t.Fatal("announcement for dst 9 never reached node 1")
	}
	if !sawWithdraw {
		t.Fatal("withdrawal for dst 9 never reached node 1")
	}
	if wdAt > 40*time.Second {
		t.Errorf("withdrawal arrived at %v; should not wait for MRAI", wdAt)
	}
}

func TestDampedWithdrawalsWaitForMRAI(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 3–9 put destinations 8 and 9 in the network
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: 30 * time.Second, MRAIJitter: 0, DampWithdrawals: true}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	cap1 := &capture{sim: s}
	net.Node(1).AttachProtocol(cap1)
	net.Node(2).AttachProtocol(&capture{})
	net.Start()
	// The announcement at 35 s egresses immediately (startup MRAI has
	// expired) and re-arms the timer; the damped withdrawal at 36 s must
	// then wait for the full MRAI.
	s.Schedule(35*time.Second, func() {
		net.Node(2).SendControl(0, &Update{Dst: 9, Path: []netsim.NodeID{2, 9}})
	})
	s.Schedule(36*time.Second, func() {
		net.Node(2).SendControl(0, &Update{Withdrawn: []netsim.NodeID{9}})
	})
	s.RunUntil(120 * time.Second)
	var wdAt time.Duration = -1
	for i, u := range cap1.updates {
		for _, w := range u.Withdrawn {
			if w == 9 && wdAt < 0 {
				wdAt = cap1.at[i]
			}
		}
	}
	if wdAt < 0 {
		t.Fatal("withdrawal never sent")
	}
	if wdAt < 65*time.Second {
		t.Errorf("damped withdrawal at %v, want after the 30 s MRAI (≥ 65 s)", wdAt)
	}
}

func TestPerDestMRAIIndependentDestinations(t *testing.T) {
	// With a per-(neighbor, destination) timer, a change to destination B
	// right after an announcement of destination A goes out immediately.
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 3–9 put destinations 8 and 9 in the network
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := Config{MRAI: 30 * time.Second, MRAIJitter: 0, PerDestMRAI: true}
	net.Node(0).AttachProtocol(New(net.Node(0), cfg))
	cap1 := &capture{sim: s}
	net.Node(1).AttachProtocol(cap1)
	net.Node(2).AttachProtocol(&capture{})
	net.Start()
	s.Schedule(time.Second, func() {
		net.Node(2).SendControl(0, &Update{Dst: 8, Path: []netsim.NodeID{2, 8}})
	})
	s.Schedule(1100*time.Millisecond, func() {
		net.Node(2).SendControl(0, &Update{Dst: 9, Path: []netsim.NodeID{2, 9}})
	})
	s.RunUntil(10 * time.Second)
	saw8, saw9 := false, false
	for _, u := range cap1.updates {
		if u.Path != nil && u.Dst == 8 {
			saw8 = true
		}
		if u.Path != nil && u.Dst == 9 {
			saw9 = true
		}
	}
	if !saw8 || !saw9 {
		t.Errorf("per-destination MRAI blocked an independent destination: saw8=%v saw9=%v", saw8, saw9)
	}
}

// A destination outside [0, NetworkSize) is dropped where the update is
// received: no panic, no forwarding entry, every table keeps its Start
// size, and the update still counts as received. The withdrawal case
// withdraws a destination an earlier announcement named.
func TestUpdateOutsideNetworkDropped(t *testing.T) {
	const n = 3
	announce := func(dst netsim.NodeID) *Update { return &Update{Dst: dst, Path: []netsim.NodeID{1, dst}} }
	withdraw := func(dst netsim.NodeID) *Update { return &Update{Withdrawn: []netsim.NodeID{dst}} }
	for _, tc := range []struct {
		name string
		bad  netsim.NodeID
		msgs []*Update
	}{
		{"announcement-above", n + 4, []*Update{announce(n + 4)}},
		{"announcement-below", -1, []*Update{announce(-1)}},
		{"withdrawal-above", n + 4, []*Update{announce(n + 4), withdraw(n + 4)}},
		{"withdrawal-below", -1, []*Update{announce(-1), withdraw(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net := build(t, 1, topology.Line(n), BGP3Config())
			met := net.Metrics()
			s.RunUntil(time.Minute) // converged: the network is silent
			p := net.Node(0).Protocol().(*Protocol)
			for i, u := range tc.msgs {
				received := met.Get(obs.ProtoUpdatesReceived)
				net.Node(1).SendControl(0, u)
				s.RunUntil(s.Now() + time.Second)
				if got := met.Get(obs.ProtoUpdatesReceived) - received; got != 1 {
					t.Errorf("message %d: updates received went up by %d, want 1", i, got)
				}
				if _, ok := net.Node(0).NextHop(tc.bad); ok {
					t.Errorf("message %d: node 0 routes to %d, outside the network", i, tc.bad)
				}
				if len(p.best) != n || len(p.dirty) != n || len(p.sess) != len(net.Node(0).Neighbors()) {
					t.Errorf("message %d: tables resized: best %d, dirty %d, sessions %d", i, len(p.best), len(p.dirty), len(p.sess))
				}
				for r, ss := range p.sess {
					if len(ss.adjIn) != n || len(ss.ribOut) != n || len(ss.pending) != n {
						t.Errorf("message %d: session %d resized: adjIn %d, ribOut %d, pending %d", i, r, len(ss.adjIn), len(ss.ribOut), len(ss.pending))
					}
				}
			}
		})
	}
}

func TestUpdateSizeBytes(t *testing.T) {
	u := &Update{Withdrawn: []netsim.NodeID{1, 2}}
	if got := u.SizeBytes(); got != headerBytes+2*withdrawBytes {
		t.Errorf("withdrawal size = %d, want %d", got, headerBytes+2*withdrawBytes)
	}
	u = &Update{Dst: 9, Path: []netsim.NodeID{1, 2, 9}}
	want := headerBytes + announceBytes + 3*pathElemBytes
	if got := u.SizeBytes(); got != want {
		t.Errorf("announcement size = %d, want %d", got, want)
	}
}

func TestSessionResetClearsState(t *testing.T) {
	g := topology.Line(3)
	s, net := build(t, 8, g, BGP3Config())
	s.RunUntil(60 * time.Second)
	// 0's route to 2 goes via 1; when the 0-1 link dies the session state
	// from 1 must be gone and the destination unreachable.
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 10*time.Second)
	if _, ok := net.Node(0).NextHop(2); ok {
		t.Error("node 0 kept a route via a reset session")
	}
	p := net.Node(0).Protocol().(*Protocol)
	if p.BestPath(1) != nil || p.BestPath(2) != nil {
		t.Error("best paths survived session reset")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		g := topology.Ring(8)
		s, net := build(t, 42, g, BGP3Config())
		s.RunUntil(60 * time.Second)
		net.FailLink(0, 1)
		s.RunUntil(120 * time.Second)
		return net.Metrics().Get(obs.ControlSent) + net.Metrics().Get(obs.ControlBytes)
	}
	if run() != run() {
		t.Error("identical seeds produced different control traffic")
	}
}

func TestIgnoresForeignMessages(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	net.Node(0).AttachProtocol(New(net.Node(0), BGP3Config()))
	net.Node(1).AttachProtocol(New(net.Node(1), BGP3Config()))
	net.Start()
	net.Node(1).SendControl(0, fakeMsg{})
	s.RunUntil(time.Second)
}

type fakeMsg struct{}

func (fakeMsg) SizeBytes() int { return 10 }

// TestFlapSuppressesRoute: three withdraw/re-announce cycles from one
// peer push its route past the suppression threshold.
func TestFlapSuppressesRoute(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 2–9 put destination 9 in the network
	g.AddEdge(0, 1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := BGP3Config()
	dcfg := DefaultDampingConfig()
	dcfg.HalfLife = time.Minute
	cfg.Damping = &dcfg
	p := New(net.Node(0), cfg)
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(&capture{})
	net.Start()
	for i := 0; i < 3; i++ {
		at := time.Duration(2*i+1) * time.Second
		s.ScheduleAt(at, func() {
			net.Node(1).SendControl(0, &Update{Dst: 9, Path: []netsim.NodeID{1, 9}})
		})
		s.ScheduleAt(at+time.Second, func() {
			net.Node(1).SendControl(0, &Update{Withdrawn: []netsim.NodeID{9}})
		})
	}
	s.RunUntil(10 * time.Second)
	if !p.damper.Suppressed(int(net.Node(0).Rank(1)), 9) {
		t.Errorf("route to 9 from 1 not suppressed after three flaps (penalty %v)",
			penalty(p.damper, int(net.Node(0).Rank(1)), 9))
	}
}
