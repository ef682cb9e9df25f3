package netsim

import (
	"slices"
	"testing"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// testProto records protocol callbacks for assertions.
type testProto struct {
	started   int
	messages  []Message
	senders   []NodeID
	downFrom  []NodeID
	upFrom    []NodeID
	onMessage func(from NodeID, msg Message)
}

func (p *testProto) Start() { p.started++ }
func (p *testProto) HandleMessage(from NodeID, msg Message) {
	p.senders = append(p.senders, from)
	p.messages = append(p.messages, msg)
	if p.onMessage != nil {
		p.onMessage(from, msg)
	}
}
func (p *testProto) LinkDown(n NodeID) { p.downFrom = append(p.downFrom, n) }
func (p *testProto) LinkUp(n NodeID)   { p.upFrom = append(p.upFrom, n) }

type testMsg struct{ size int }

func (m testMsg) SizeBytes() int { return m.size }

// recorder captures observer events. Packets are only valid during the
// callback (the network recycles them), so deliveries are kept by value with
// their own copy of the hop trace.
type recorder struct {
	NopObserver
	delivered []Packet
	deliverAt []time.Duration
	drops     []DropReason
	dropAt    []NodeID
	routes    int
	notes     []obs.Record
}

func (r *recorder) PacketDelivered(at time.Duration, pkt *Packet) {
	cp := *pkt
	cp.Trace = slices.Clone(pkt.Trace)
	r.delivered = append(r.delivered, cp)
	r.deliverAt = append(r.deliverAt, at)
}

func (r *recorder) PacketDropped(_ time.Duration, where NodeID, _ *Packet, reason DropReason) {
	r.drops = append(r.drops, reason)
	r.dropAt = append(r.dropAt, where)
}

func (r *recorder) RouteChanged(time.Duration, NodeID, NodeID, NodeID, bool) { r.routes++ }

func (r *recorder) Note(rec obs.Record) { r.notes = append(r.notes, rec) }

// lineNet builds a 3-node line 0-1-2 with static routes toward node 2.
func lineNet(t *testing.T, cfg Config, obs Observer) (*sim.Simulator, *Network) {
	t.Helper()
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), cfg, obs)
	n.Node(0).SetRoute(2, 1)
	n.Node(1).SetRoute(2, 2)
	return s, n
}

func TestDataDeliveryTiming(t *testing.T) {
	cfg := Config{LinkRateBps: 8_000_000, LinkDelay: time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 10}
	rec := &recorder{}
	s, n := lineNet(t, cfg, rec)
	n.Node(0).SendData(2, 1000, 64)
	s.Run()
	if len(rec.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(rec.delivered))
	}
	// Two hops, each 1000B*8/8Mbps = 1ms serialization + 1ms propagation.
	want := 4 * time.Millisecond
	if rec.deliverAt[0] != want {
		t.Errorf("delivery at %v, want %v", rec.deliverAt[0], want)
	}
	if rec.delivered[0].HopCount != 2 {
		t.Errorf("HopCount = %d, want 2", rec.delivered[0].HopCount)
	}
	if got := n.Metrics().Get(obs.PacketsDelivered); got != 1 {
		t.Errorf("packets.delivered = %d, want 1", got)
	}
}

func TestNoRouteDrop(t *testing.T) {
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), rec)
	n.Node(0).SendData(1, 100, 64) // no route installed
	s.Run()
	if len(rec.drops) != 1 || rec.drops[0] != DropNoRoute {
		t.Fatalf("drops = %v, want [no-route]", rec.drops)
	}
	if n.Metrics().Get(dropCounter[DropNoRoute]) != 1 {
		t.Error("stats no-route counter not incremented")
	}
}

func TestTTLExpiredInLoop(t *testing.T) {
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), DefaultConfig(), rec)
	// 0 and 1 point at each other for destination 2: a two-hop loop.
	n.Node(0).SetRoute(2, 1)
	n.Node(1).SetRoute(2, 0)
	n.Node(0).SendData(2, 100, 10)
	s.Run()
	if len(rec.drops) != 1 || rec.drops[0] != DropTTLExpired {
		t.Fatalf("drops = %v, want [ttl-expired]", rec.drops)
	}
}

func TestHopTraceRecording(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHops = true
	rec := &recorder{}
	s, n := lineNet(t, cfg, rec)
	n.Node(0).SendData(2, 100, 64)
	s.Run()
	if len(rec.delivered) != 1 {
		t.Fatal("packet not delivered")
	}
	trace := rec.delivered[0].Trace
	want := []NodeID{0, 1, 2}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	cfg := Config{LinkRateBps: 8_000, LinkDelay: time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 2}
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), cfg, rec)
	n.Node(0).SetRoute(1, 1)
	// Serialization is 1s per 1000-byte packet at 8 kbps; five back-to-back
	// sends leave 1 transmitting, 2 queued, 2 dropped.
	for i := 0; i < 5; i++ {
		n.Node(0).SendData(1, 1000, 64)
	}
	s.Run()
	if got := n.Metrics().Get(dropCounter[DropQueueOverflow]); got != 2 {
		t.Errorf("queue overflow drops = %d, want 2", got)
	}
	if got := n.Metrics().Get(obs.PacketsDelivered); got != 3 {
		t.Errorf("delivered = %d, want 3", got)
	}
}

func TestControlExemptFromQueueCap(t *testing.T) {
	cfg := Config{LinkRateBps: 8_000, LinkDelay: time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 1}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), cfg, nil)
	proto := &testProto{}
	n.Node(1).AttachProtocol(proto)
	for i := 0; i < 5; i++ {
		n.Node(0).SendControl(1, testMsg{size: 1000})
	}
	s.Run()
	if len(proto.messages) != 5 {
		t.Errorf("delivered %d control messages, want 5", len(proto.messages))
	}
}

func TestControlDelivery(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	proto := &testProto{}
	n.Node(1).AttachProtocol(proto)
	n.Node(0).SendControl(1, testMsg{size: 64})
	s.Run()
	if len(proto.messages) != 1 {
		t.Fatalf("got %d messages, want 1", len(proto.messages))
	}
	if proto.senders[0] != 0 {
		t.Errorf("sender = %d, want 0", proto.senders[0])
	}
	if got := proto.messages[0].(testMsg).size; got != 64 {
		t.Errorf("message size = %d, want 64", got)
	}
	met := n.Metrics()
	if msgs, bytes := met.Get(obs.ControlSent), met.Get(obs.ControlBytes); msgs != 1 || bytes != 64 {
		t.Errorf("control stats = %d msgs / %d bytes, want 1 / 64", msgs, bytes)
	}
}

func TestLinkFailureDropsAndNotifies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectDelay = 50 * time.Millisecond
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), cfg, rec)
	n.Node(0).SetRoute(1, 1)
	pa, pb := &testProto{}, &testProto{}
	n.Node(0).AttachProtocol(pa)
	n.Node(1).AttachProtocol(pb)
	n.Start()

	var notified time.Duration
	s.Schedule(time.Second, func() { n.FailLink(0, 1) })
	s.Schedule(time.Second+time.Millisecond, func() { n.Node(0).SendData(1, 100, 64) })
	s.Schedule(2*time.Second, func() { notified = s.Now() })
	s.Run()
	_ = notified

	if len(rec.drops) != 1 || rec.drops[0] != DropLinkFailure {
		t.Fatalf("drops = %v, want [link-failure]", rec.drops)
	}
	if len(pa.downFrom) != 1 || pa.downFrom[0] != 1 {
		t.Errorf("node 0 LinkDown calls = %v, want [1]", pa.downFrom)
	}
	if len(pb.downFrom) != 1 || pb.downFrom[0] != 0 {
		t.Errorf("node 1 LinkDown calls = %v, want [0]", pb.downFrom)
	}
	if n.Link(0, 1).Up() {
		t.Error("link still up after FailLink")
	}
}

func TestLinkFailureLosesInFlight(t *testing.T) {
	cfg := Config{LinkRateBps: 8_000_000, LinkDelay: 10 * time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 10}
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), cfg, rec)
	n.Node(0).SetRoute(1, 1)
	n.Node(0).SendData(1, 1000, 64) // arrives at 1ms ser + 10ms prop = 11ms
	s.Schedule(5*time.Millisecond, func() { n.FailLink(0, 1) })
	s.Run()
	if len(rec.delivered) != 0 {
		t.Fatal("packet delivered despite mid-flight link failure")
	}
	if len(rec.drops) != 1 || rec.drops[0] != DropLinkFailure {
		t.Fatalf("drops = %v, want [link-failure]", rec.drops)
	}
}

func TestRestoreLink(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	pa := &testProto{}
	n.Node(0).AttachProtocol(pa)
	n.Start()
	n.FailLink(0, 1)
	s.Schedule(time.Second, func() { n.RestoreLink(0, 1) })
	s.Run()
	if len(pa.downFrom) != 1 || len(pa.upFrom) != 1 {
		t.Errorf("down=%v up=%v, want one each", pa.downFrom, pa.upFrom)
	}
	if !n.Link(0, 1).Up() {
		t.Error("link down after RestoreLink")
	}
}

func TestFailBeforeDetectSuppressed(t *testing.T) {
	// A link that fails and recovers within the detection window produces
	// no protocol notification at all.
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.DetectDelay = 100 * time.Millisecond
	n := FromGraph(s, topology.Line(2), cfg, nil)
	pa := &testProto{}
	n.Node(0).AttachProtocol(pa)
	n.Start()
	n.FailLink(0, 1)
	s.Schedule(10*time.Millisecond, func() { n.RestoreLink(0, 1) })
	s.Run()
	if len(pa.downFrom) != 0 || len(pa.upFrom) != 0 {
		t.Errorf("flap within detection window notified: down=%v up=%v", pa.downFrom, pa.upFrom)
	}
}

func TestWalkPath(t *testing.T) {
	s, n := lineNet(t, DefaultConfig(), nil)
	_ = s
	path, ok := n.WalkPath(0, 2)
	if !ok || len(path) != 3 {
		t.Fatalf("WalkPath = %v, %v; want 0-1-2", path, ok)
	}

	// Loop case.
	n.Node(1).SetRoute(2, 0)
	if _, ok := n.WalkPath(0, 2); ok {
		t.Error("WalkPath reported ok through a loop")
	}

	// Missing route case.
	n.Node(1).ClearRoute(2)
	if _, ok := n.WalkPath(0, 2); ok {
		t.Error("WalkPath reported ok with missing route")
	}

	// Down-link case.
	n.Node(1).SetRoute(2, 2)
	n.FailLink(1, 2)
	if _, ok := n.WalkPath(0, 2); ok {
		t.Error("WalkPath reported ok across a failed link")
	}
}

func TestRouteChangeObserver(t *testing.T) {
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), DefaultConfig(), rec)
	n.Node(0).SetRoute(2, 1)
	n.Node(0).SetRoute(2, 1) // no-op: same next hop
	n.Node(0).ClearRoute(2)
	n.Node(0).ClearRoute(2) // no-op: already gone
	if rec.routes != 2 {
		t.Errorf("route change events = %d, want 2", rec.routes)
	}
}

func TestNextHop(t *testing.T) {
	_, n := lineNet(t, DefaultConfig(), nil)
	nh, ok := n.Node(0).NextHop(2)
	if !ok || nh != 1 {
		t.Errorf("NextHop = %d, %v; want 1, true", nh, ok)
	}
	if _, ok := n.Node(2).NextHop(0); ok {
		t.Error("NextHop on empty FIB reported ok")
	}
}

func TestCBR(t *testing.T) {
	rec := &recorder{}
	s, n := lineNet(t, DefaultConfig(), rec)
	StartCBR(n.Node(0), 2, 50*time.Millisecond, 1000, 64, time.Second, 2*time.Second)
	s.Run()
	// Sends at 1.00, 1.05, ..., 1.95 = 20 packets.
	if got := n.Metrics().Get(obs.PacketsSent); got != 20 {
		t.Errorf("CBR sent %d packets, want 20", got)
	}
	if got := len(rec.delivered); got != 20 {
		t.Errorf("delivered %d packets, want 20", got)
	}
}

func TestCBRStop(t *testing.T) {
	s, n := lineNet(t, DefaultConfig(), nil)
	StartCBR(n.Node(0), 2, 50*time.Millisecond, 1000, 64, time.Second, 1500*time.Millisecond)
	s.RunUntil(1500 * time.Millisecond)
	// Sends at 1.00, 1.05, ..., 1.45; the tick at the stop time sends
	// nothing and schedules nothing.
	if got := n.Metrics().Get(obs.PacketsSent); got != 10 {
		t.Errorf("CBR sent %d packets, want 10 (stopped early)", got)
	}
	s.Run()
	if got := n.Metrics().Get(obs.PacketsSent); got != 10 {
		t.Errorf("CBR sent %d packets after its stop time, want 10", got)
	}
}

func TestNeighborsSorted(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultConfig(), nil)
	for i := 0; i < 5; i++ {
		n.AddNode()
	}
	n.Connect(2, 4)
	n.Connect(2, 0)
	n.Connect(2, 3)
	n.Connect(2, 1)
	got := n.Node(2).Neighbors()
	want := []NodeID{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", got, want)
		}
	}
}

func TestProtocolStartOrder(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(3), DefaultConfig(), nil)
	protos := make([]*testProto, 3)
	for i := range protos {
		protos[i] = &testProto{}
		n.Node(NodeID(i)).AttachProtocol(protos[i])
	}
	n.Start()
	for i, p := range protos {
		if p.started != 1 {
			t.Errorf("protocol %d started %d times, want 1", i, p.started)
		}
	}
}

func TestDuplicateConnectPanics(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Error("duplicate Connect did not panic")
		}
	}()
	n.Connect(1, 0)
}

// Protocols store neighbor ranks and size their tables to the network, so
// the topology is frozen once the network starts.
func TestTopologyFrozenAfterStart(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(*Network)
		want string
	}{
		{"Connect", func(n *Network) { n.Connect(0, 2) }, "netsim: Connect after Start"},
		{"AddNode", func(n *Network) { n.AddNode() }, "netsim: AddNode after Start"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := FromGraph(sim.New(1), topology.Line(3), DefaultConfig(), nil)
			n.Start()
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("panic = %v, want %q", got, tc.want)
				}
			}()
			tc.call(n)
		})
	}
}

func TestLinksSorted(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Ring(4), DefaultConfig(), nil)
	links := n.Links()
	if len(links) != 4 {
		t.Fatalf("got %d links, want 4", len(links))
	}
	for i := 1; i < len(links); i++ {
		a, b := links[i-1].Edge(), links[i].Edge()
		if a.A > b.A || (a.A == b.A && a.B >= b.B) {
			t.Fatal("Links() not sorted")
		}
	}
}

func TestFastRerouteDeflectsOnDownLink(t *testing.T) {
	// Diamond 0-1-3, 0-2-3: primary 0→1, backup 0→2. Fail 0-1 and send
	// immediately (before any detection): the packet must deflect via 2.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	rec := &recorder{}
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RecordHops = true
	n := FromGraph(s, g, cfg, rec)
	n.Node(0).SetRoute(3, 1)
	n.Node(0).SetBackupRoutes(3, []NodeID{2})
	n.Node(1).SetRoute(3, 3)
	n.Node(2).SetRoute(3, 3)

	n.FailLink(0, 1)
	n.Node(0).SendData(3, 100, 64)
	s.Run()
	if len(rec.delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (fast reroute)", len(rec.delivered))
	}
	trace := rec.delivered[0].Trace
	if len(trace) != 3 || trace[1] != 2 {
		t.Errorf("packet path = %v, want detour via 2", trace)
	}
}

func TestFastRerouteIgnoredWhilePrimaryUp(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	rec := &recorder{}
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RecordHops = true
	n := FromGraph(s, g, cfg, rec)
	n.Node(0).SetRoute(3, 1)
	n.Node(0).SetBackupRoutes(3, []NodeID{2})
	n.Node(1).SetRoute(3, 3)
	n.Node(2).SetRoute(3, 3)
	n.Node(0).SendData(3, 100, 64)
	s.Run()
	if len(rec.delivered) != 1 || rec.delivered[0].Trace[1] != 1 {
		t.Errorf("packet should use the primary while it is up; trace = %v", rec.delivered[0].Trace)
	}
}

func TestFastRerouteBackupDownToo(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, g, DefaultConfig(), rec)
	n.Node(0).SetRoute(3, 1)
	n.Node(0).SetBackupRoutes(3, []NodeID{2})
	n.FailLink(0, 1)
	n.FailLink(0, 2)
	n.Node(0).SendData(3, 100, 64)
	s.Run()
	// Both down: the packet dies on the primary (link-failure drop).
	if len(rec.drops) != 1 || rec.drops[0] != DropLinkFailure {
		t.Errorf("drops = %v, want [link-failure]", rec.drops)
	}
}

func TestSetBackupRouteNonNeighborPanics(t *testing.T) {
	g := topology.Line(3)
	s := sim.New(1)
	n := FromGraph(s, g, DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Error("backup to non-neighbor did not panic")
		}
	}()
	n.Node(0).SetBackupRoutes(2, []NodeID{2})
}

// TestLinkCounters: a burst onto a one-packet queue, as the network's
// counters and the recorder see it. One packet transmits, one waits and
// follows it, and two overflow the queue at the sender.
func TestLinkCounters(t *testing.T) {
	cfg := Config{LinkRateBps: 8_000_000, LinkDelay: time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 1}
	s := sim.New(1)
	rec := &recorder{}
	n := FromGraph(s, topology.Line(2), cfg, rec)
	n.Node(0).SetRoute(1, 1)
	for i := 0; i < 4; i++ {
		n.Node(0).SendData(1, 1000, 64) // 1 transmitting, 1 queued, 2 dropped
	}
	s.Run()
	met := n.Metrics()
	if got := met.Get(obs.PacketsForwarded); got != 4 {
		t.Errorf("forwarded = %d, want 4 (a queue drop is forwarded, then refused)", got)
	}
	if got := met.Get(obs.PacketsDelivered); got != 2 || len(rec.delivered) != 2 {
		t.Errorf("delivered = %d (recorder %d), want 2", got, len(rec.delivered))
	}
	if got := met.Get(obs.DropQueueOverflow); got != 2 {
		t.Errorf("queue drops = %d, want 2", got)
	}
	if len(rec.drops) != 2 || rec.drops[0] != DropQueueOverflow || rec.drops[1] != DropQueueOverflow {
		t.Errorf("recorded drops = %v, want two queue overflows", rec.drops)
	}
	if got := met.Snapshot()["queue.peak"]; got != 1 {
		t.Errorf("queue peak = %d, want 1", got)
	}
	if s.Now() != 2*n.serialization(1000)+cfg.LinkDelay {
		t.Errorf("last delivery at %v, want two serializations and one link delay", s.Now())
	}
}

func TestFIFOQueueOrder(t *testing.T) {
	// Packets queued behind a busy transmitter must arrive in send order.
	cfg := Config{LinkRateBps: 8_000_000, LinkDelay: time.Millisecond, DetectDelay: time.Millisecond, QueueLimit: 100}
	rec := &recorder{}
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), cfg, rec)
	n.Node(0).SetRoute(1, 1)
	for i := 0; i < 10; i++ {
		n.Node(0).SendData(1, 1000, 64)
	}
	s.Run()
	if len(rec.delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(rec.delivered))
	}
	for i := 1; i < 10; i++ {
		if rec.delivered[i].ID <= rec.delivered[i-1].ID {
			t.Fatal("packets delivered out of order")
		}
	}
}

func TestNewPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero link rate did not panic")
		}
	}()
	New(sim.New(1), Config{}, nil)
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LinkRateBps != 10_000_000 || cfg.LinkDelay != time.Millisecond ||
		cfg.DetectDelay != 50*time.Millisecond || cfg.QueueLimit != 20 {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
}

func TestDropReasonStrings(t *testing.T) {
	cases := map[DropReason]string{
		DropNoRoute:       "no-route",
		DropTTLExpired:    "ttl-expired",
		DropQueueOverflow: "queue-overflow",
		DropLinkFailure:   "link-failure",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
	if DropReason(99).String() == "" {
		t.Error("unknown reason renders empty")
	}
}

func TestAttachAfterStartPanics(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	n.Start()
	defer func() {
		if recover() == nil {
			t.Error("AttachProtocol after Start did not panic")
		}
	}()
	n.Node(0).AttachProtocol(&testProto{})
}

func TestDoubleStartPanics(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	n.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	n.Start()
}

func TestFailUnknownLinkPanics(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	defer func() {
		if recover() == nil {
			t.Error("FailLink on missing link did not panic")
		}
	}()
	n.FailLink(0, 5)
}

func TestFailAndRestoreIdempotent(t *testing.T) {
	s := sim.New(1)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	pa := &testProto{}
	n.Node(0).AttachProtocol(pa)
	n.Start()
	n.FailLink(0, 1)
	n.FailLink(0, 1) // no-op
	s.RunUntil(time.Second)
	n.RestoreLink(0, 1)
	n.RestoreLink(0, 1) // no-op
	s.RunUntil(2 * time.Second)
	if len(pa.downFrom) != 1 || len(pa.upFrom) != 1 {
		t.Errorf("down=%v up=%v, want exactly one each", pa.downFrom, pa.upFrom)
	}
}

// A link's up/down state is derived from its holds — explicitly failed, or
// a failed endpoint — so overlapping link, node and repair events compose in
// any order. Each case runs ops on the line 0-1-2 and states whether links
// 0-1 and 1-2 are up after every step.
func TestLinkHoldsCompose(t *testing.T) {
	type step struct {
		op       string
		a, b     NodeID
		up01     bool
		up12     bool
		tookDown int // FailNode's return value
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"adjacent nodes, first-failed recovers first", []step{
			{op: "failnode", a: 0, up01: false, up12: true, tookDown: 1},
			{op: "failnode", a: 1, up01: false, up12: false, tookDown: 1},
			{op: "recovernode", a: 0, up01: false, up12: false},
			{op: "recovernode", a: 1, up01: true, up12: true},
		}},
		{"adjacent nodes, last-failed recovers first", []step{
			{op: "failnode", a: 0, up01: false, up12: true, tookDown: 1},
			{op: "failnode", a: 1, up01: false, up12: false, tookDown: 1},
			{op: "recovernode", a: 1, up01: false, up12: true},
			{op: "recovernode", a: 0, up01: true, up12: true},
		}},
		{"fail link inside a node outage outlives the recovery", []step{
			{op: "failnode", a: 1, up01: false, up12: false, tookDown: 2},
			{op: "faillink", a: 0, b: 1, up01: false, up12: false},
			{op: "recovernode", a: 1, up01: false, up12: true},
			{op: "restorelink", a: 0, b: 1, up01: true, up12: true},
		}},
		{"link repair inside a node outage waits for the node", []step{
			{op: "faillink", a: 1, b: 2, up01: true, up12: false},
			{op: "failnode", a: 2, up01: true, up12: false, tookDown: 0},
			{op: "restorelink", a: 1, b: 2, up01: true, up12: false},
			{op: "recovernode", a: 2, up01: true, up12: true},
		}},
		{"repeats are no-ops", []step{
			{op: "failnode", a: 1, up01: false, up12: false, tookDown: 2},
			{op: "failnode", a: 1, up01: false, up12: false, tookDown: 0},
			{op: "recovernode", a: 1, up01: true, up12: true},
			{op: "recovernode", a: 1, up01: true, up12: true},
			{op: "restorelink", a: 0, b: 1, up01: true, up12: true},
			{op: "faillink", a: 0, b: 1, up01: false, up12: true},
			{op: "faillink", a: 0, b: 1, up01: false, up12: true},
			{op: "restorelink", a: 0, b: 1, up01: true, up12: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, n := lineNet(t, DefaultConfig(), nil)
			protos := make([]*testProto, 3)
			for i := range protos {
				protos[i] = &testProto{}
				n.Node(NodeID(i)).AttachProtocol(protos[i])
			}
			n.Start()
			for i, st := range tc.steps {
				switch st.op {
				case "failnode":
					if got := n.FailNode(st.a); got != st.tookDown {
						t.Errorf("step %d: FailNode(%d) took %d links down, want %d", i, st.a, got, st.tookDown)
					}
				case "recovernode":
					n.RecoverNode(st.a)
				case "faillink":
					n.FailLink(st.a, st.b)
				case "restorelink":
					n.RestoreLink(st.a, st.b)
				}
				if got := n.Link(0, 1).Up(); got != st.up01 {
					t.Errorf("step %d (%s): link 0-1 up = %v, want %v", i, st.op, got, st.up01)
				}
				if got := n.Link(1, 2).Up(); got != st.up12 {
					t.Errorf("step %d (%s): link 1-2 up = %v, want %v", i, st.op, got, st.up12)
				}
				s.RunUntil(s.Now() + time.Second) // let detection fire
			}
			// Every case ends all-up, so each endpoint saw as many LinkUp
			// as LinkDown notifications.
			for i, p := range protos {
				if len(p.downFrom) != len(p.upFrom) {
					t.Errorf("node %d: %d LinkDown vs %d LinkUp notifications", i, len(p.downFrom), len(p.upFrom))
				}
			}
		})
	}
}
