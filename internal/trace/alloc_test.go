package trace

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// Forwarding with the instrumentation a traced trial attaches — a
// full-mode recorder writing a convergence timeline — must not allocate
// toward a destination no flow receives at: the data path reaches the
// recorder through one flow lookup that finds nothing, and adds no record.
func TestForwardingInstrumentedAllocs(t *testing.T) {
	s := sim.New(1)
	tl := obs.NewTimeline()
	c := NewCollector(0, 2, Options{Timeline: tl})
	net := netsim.New(s, netsim.DefaultConfig(), c)
	for i := 0; i < 3; i++ {
		net.AddNode()
	}
	net.Connect(0, 1)
	net.Connect(1, 2)
	c.SetNetwork(net)
	net.Node(0).SetRoute(1, 1)
	net.Start()
	src := net.Node(0)
	for i := 0; i < 16; i++ {
		src.SendData(1, 1000, 64)
		s.Run()
	}
	c.flush()
	before, records := net.Metrics().Get(obs.PacketsDelivered), tl.Len()
	const runs = 1000
	avg := testing.AllocsPerRun(runs, func() {
		src.SendData(1, 1000, 64)
		s.Run()
	})
	if avg != 0 {
		t.Errorf("instrumented one-hop forwarding allocates %.1f objects per packet, want 0", avg)
	}
	if got := net.Metrics().Get(obs.PacketsDelivered) - before; got < runs {
		t.Fatalf("metrics counted %d delivered packets, want ≥ %d", got, runs)
	}
	c.flush()
	if got := tl.Len() - records; got != 0 {
		t.Errorf("data forwarding added %d timeline records, want 0", got)
	}
	if len(c.Deliveries) != 0 {
		t.Errorf("the flow toward 2 recorded %d deliveries toward 1", len(c.Deliveries))
	}
}

// One recorder keeps forty flows apart: on a star whose hub sends to every
// leaf, flow i's record holds exactly its own deliveries and data drops —
// i+1 packets each, delivered when i is odd and dropped for want of a route
// when it is even — and traffic to a leaf no flow receives at is in none.
// The recorder is a full-mode one: a compact recorder lists no deliveries.
func TestFlowRecordsSeparate(t *testing.T) {
	const flows = 40
	s := sim.New(1)
	c := NewCollector(0, 1, Options{})
	net := netsim.New(s, netsim.DefaultConfig(), c)
	net.AddNode() // the hub
	for leaf := netsim.NodeID(1); leaf <= flows+1; leaf++ {
		net.AddNode()
		net.Connect(0, leaf)
		if leaf > 1 && leaf <= flows {
			c.AddFlow(0, leaf)
		}
	}
	c.SetNetwork(net)
	for leaf := netsim.NodeID(1); leaf <= flows+1; leaf++ {
		if leaf%2 == 0 || leaf > flows { // flow leaf-1 is odd, or no flow
			net.Node(0).SetRoute(leaf, leaf)
		}
	}
	net.Start()
	// Round k sends one packet to every flow with index ≥ k: one packet per
	// hub port, so no queue overflows.
	for k := range flows {
		for _, f := range c.Flows()[k:] {
			net.Node(0).SendData(f.Dst, 100, 64)
		}
		s.Run()
	}
	net.Node(0).SendData(flows+1, 100, 64)
	s.Run()
	c.Finish()
	if got := len(c.Flows()); got != flows {
		t.Fatalf("%d flows, want %d", got, flows)
	}
	delivered, dropped := 0, 0
	for i, f := range c.Flows() {
		want := [2]int{0, i + 1} // deliveries, drops
		if i%2 == 1 {
			want = [2]int{i + 1, 0}
		}
		if got := [2]int{len(f.Deliveries), len(f.Drops)}; got != want {
			t.Errorf("flow %d (0→%d): %d deliveries and %d drops, want %d and %d", i, f.Dst, got[0], got[1], want[0], want[1])
		}
		if got := f.DataDropsAfter(0, netsim.DropNoRoute); got != len(f.Drops) {
			t.Errorf("flow %d: %d of its %d drops are no-route drops", i, got, len(f.Drops))
		}
		delivered += len(f.Deliveries)
		dropped += len(f.Drops)
	}
	met := net.Metrics()
	if got := met.Get(obs.PacketsDelivered); got != uint64(delivered)+1 {
		t.Errorf("network delivered %d packets, the flows hold %d and one went to no flow", got, delivered)
	}
	if got := met.Get(obs.DropNoRoute); got != uint64(dropped) {
		t.Errorf("network dropped %d packets for want of a route, the flows hold %d", got, dropped)
	}
}

// A compact recorder folds a delivery before the failure into the primary
// flow's per-second bins without allocating: it keeps no per-packet record.
func TestCompactDeliveryAllocs(t *testing.T) {
	c := NewCollector(0, 2, Options{Compact: true, FailAt: 5 * time.Second, End: 10 * time.Second})
	pkt := &netsim.Packet{Src: 0, Dst: 2, Created: 2 * time.Second}
	avg := testing.AllocsPerRun(1000, func() { c.PacketDelivered(2*time.Second+time.Millisecond, pkt) })
	if avg != 0 {
		t.Errorf("compact PacketDelivered allocates %.1f objects per delivery, want 0", avg)
	}
	if got := c.Arrivals.PerSecond.Count[2]; got != 1001 {
		t.Errorf("bin 2 counts %v deliveries, want 1001", got)
	}
	if len(c.Deliveries) != 0 || len(c.Arrivals.PostFail) != 0 {
		t.Errorf("recorder kept %d deliveries and %d post-failure delays, want none", len(c.Deliveries), len(c.Arrivals.PostFail))
	}
}

// A route change toward the traced flow's receiver re-walks the flow's
// path into the flow's own walk buffer. Once the recorder has seen the
// entry and the path, a change that leaves both as they were allocates
// nothing: the walk, the instant's commit and its net-zero FIB record
// reuse what the last change left.
func TestRouteChangeTowardFlowAllocs(t *testing.T) {
	s := sim.New(1)
	tl := obs.NewTimeline()
	c := NewCollector(0, 3, Options{Timeline: tl})
	net := netsim.New(s, netsim.DefaultConfig(), c)
	for i := 0; i < 4; i++ {
		net.AddNode()
	}
	for i := netsim.NodeID(0); i < 3; i++ {
		net.Connect(i, i+1)
	}
	c.SetNetwork(net)
	for i := netsim.NodeID(0); i < 3; i++ {
		net.Node(i).SetRoute(3, i+1)
	}
	at := time.Second
	change := func() {
		at += time.Millisecond
		c.RouteChanged(at, 1, 3, 2, false)
	}
	for range 4 {
		change()
	}
	samples, records := len(c.PathHistory), tl.Len()
	if avg := testing.AllocsPerRun(1000, change); avg != 0 {
		t.Errorf("a route change toward the flow's receiver allocates %.1f objects, want 0", avg)
	}
	c.flush()
	if got := c.PathHistory[len(c.PathHistory)-1]; !got.OK || len(got.Path) != 4 {
		t.Errorf("last path sample %+v, want the complete walk 0-1-2-3", got)
	}
	if len(c.PathHistory) != samples || tl.Len() != records {
		t.Errorf("unchanged route changes added %d path samples and %d records, want none",
			len(c.PathHistory)-samples, tl.Len()-records)
	}
}
