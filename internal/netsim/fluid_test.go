package netsim

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// fluidLine builds an n-node line with static routes toward the last
// node and a FlowSet attached.
func fluidLine(t *testing.T, n int, fcfg FlowSetConfig) (*sim.Simulator, *Network, *FlowSet) {
	t.Helper()
	s := sim.New(1)
	net := FromGraph(s, topology.Line(n), DefaultConfig(), nil)
	last := NodeID(n - 1)
	for i := 0; i < n-1; i++ {
		net.Node(NodeID(i)).SetRoute(last, NodeID(i+1))
	}
	fs := net.AttachFlows(fcfg)
	return s, net, fs
}

// shortestPathRoutes installs, at every node and for every destination, the
// first neighbor one hop closer to it.
func shortestPathRoutes(net *Network, g *topology.Graph) {
	for dst := NodeID(0); int(dst) < g.Len(); dst++ {
		dist := g.BFS(dst)
		for u := NodeID(0); int(u) < g.Len(); u++ {
			for _, v := range net.Node(u).Neighbors() {
				if dist[v] == dist[u]-1 {
					net.Node(u).SetRoute(dst, v)
					break
				}
			}
		}
	}
}

// TestFluidMatchesPacketQuiescent pins the tentpole's exactness claim: on
// a quiescent network the fluid evaluator's sent/delivered/in-flight
// accounting is identical to running the same CBR flow packet-by-packet —
// including the end-of-run in-flight tail.
func TestFluidMatchesPacketQuiescent(t *testing.T) {
	const (
		interval = 50 * time.Millisecond
		start    = time.Second
		// The horizon cuts the last tick's flight short: 20 ticks are
		// emitted, the 1.95 s one is still on the wire at 1.952 s.
		stop = 1952 * time.Millisecond
		size = 1000
		ttl  = 64
	)

	// Packet reference run.
	ps := sim.New(1)
	pnet := FromGraph(ps, topology.Line(4), DefaultConfig(), nil)
	for i := 0; i < 3; i++ {
		pnet.Node(NodeID(i)).SetRoute(3, NodeID(i+1))
	}
	StartCBR(pnet.Node(0), 3, interval, size, ttl, start, stop)
	ps.RunUntil(stop)

	// Fluid run of the same flow class.
	fs, fnet, flows := fluidLine(t, 4, FlowSetConfig{Start: start, Stop: stop})
	flows.Add(0, 3, interval, size, ttl)
	fs.RunUntil(stop)
	flows.Finish()

	p, f := pnet.Metrics(), fnet.Metrics()
	if p.Get(obs.PacketsSent) != f.Get(obs.PacketsSent) {
		t.Errorf("sent: packet %d, fluid %d", p.Get(obs.PacketsSent), f.Get(obs.PacketsSent))
	}
	if p.Get(obs.PacketsDelivered) != f.Get(obs.PacketsDelivered) {
		t.Errorf("delivered: packet %d, fluid %d", p.Get(obs.PacketsDelivered), f.Get(obs.PacketsDelivered))
	}
	if dataDropped(p) != 0 || dataDropped(f) != 0 {
		t.Errorf("drops: packet %d, fluid %d, want 0", dataDropped(p), dataDropped(f))
	}
	if inFlight(p) != inFlight(f) {
		t.Errorf("in-flight: packet %d, fluid %d", inFlight(p), inFlight(f))
	}
	if p.Get(obs.PacketsSent) != 20 || p.Get(obs.PacketsDelivered) != 19 || inFlight(p) != 1 {
		t.Errorf("packet reference = sent %d delivered %d inflight %d, want 20/19/1",
			p.Get(obs.PacketsSent), p.Get(obs.PacketsDelivered), inFlight(p))
	}
	if got := flows.Totals().InFlightEnd; got != 1 {
		t.Errorf("fluid InFlightEnd = %d, want 1", got)
	}
}

// TestFluidFates classifies blackholed, looping, dead-link and
// TTL-exhausted flows into the same drop causes the packet engine uses.
func TestFluidFates(t *testing.T) {
	run := func(t *testing.T, build func(*Network, *FlowSet)) *obs.Metrics {
		t.Helper()
		s := sim.New(1)
		net := FromGraph(s, topology.Line(3), DefaultConfig(), nil)
		fs := net.AttachFlows(FlowSetConfig{Start: time.Second, Stop: 2 * time.Second})
		build(net, fs)
		s.RunUntil(2 * time.Second)
		fs.Finish()
		return net.Metrics()
	}

	t.Run("blackhole", func(t *testing.T) {
		st := run(t, func(net *Network, fs *FlowSet) {
			net.Node(0).SetRoute(2, 1) // node 1 has no route: blackhole
			fs.Add(0, 2, 100*time.Millisecond, 1000, 64)
		})
		if st.Get(dropCounter[DropNoRoute]) != 10 || st.Get(obs.PacketsDelivered) != 0 {
			t.Errorf("noroute=%d delivered=%d, want 10/0", st.Get(dropCounter[DropNoRoute]), st.Get(obs.PacketsDelivered))
		}
	})
	t.Run("loop", func(t *testing.T) {
		st := run(t, func(net *Network, fs *FlowSet) {
			net.Node(0).SetRoute(2, 1)
			net.Node(1).SetRoute(2, 0) // 0↔1 micro-loop
			fs.Add(0, 2, 100*time.Millisecond, 1000, 64)
		})
		if st.Get(dropCounter[DropTTLExpired]) != 10 {
			t.Errorf("ttl drops = %d, want 10", st.Get(dropCounter[DropTTLExpired]))
		}
	})
	t.Run("deadlink", func(t *testing.T) {
		st := run(t, func(net *Network, fs *FlowSet) {
			net.Node(0).SetRoute(2, 1)
			net.Node(1).SetRoute(2, 2)
			net.FailLink(1, 2)
			fs.Add(0, 2, 100*time.Millisecond, 1000, 64)
		})
		if st.Get(dropCounter[DropLinkFailure]) != 10 {
			t.Errorf("link drops = %d, want 10", st.Get(dropCounter[DropLinkFailure]))
		}
	})
	t.Run("ttlbudget", func(t *testing.T) {
		st := run(t, func(net *Network, fs *FlowSet) {
			net.Node(0).SetRoute(2, 1)
			net.Node(1).SetRoute(2, 2)
			fs.Add(0, 2, 100*time.Millisecond, 1000, 1) // 2 hops > TTL 1
		})
		if st.Get(dropCounter[DropTTLExpired]) != 10 {
			t.Errorf("ttl drops = %d, want 10", st.Get(dropCounter[DropTTLExpired]))
		}
	})
}

// TestFluidConservation checks the obs identity delivered + drops +
// in-flight == sent across a mixed set of fluid fates.
func TestFluidConservation(t *testing.T) {
	s := sim.New(1)
	net := FromGraph(s, topology.Line(4), DefaultConfig(), nil)
	for i := 0; i < 3; i++ {
		net.Node(NodeID(i)).SetRoute(3, NodeID(i+1))
	}
	net.Node(2).SetRoute(0, 1) // partial reverse path: node 1 blackholes 0
	fs := net.AttachFlows(FlowSetConfig{Start: time.Second, Stop: 2 * time.Second})
	fs.Add(0, 3, 50*time.Millisecond, 1000, 64)
	fs.Add(2, 0, 70*time.Millisecond, 500, 64)
	s.RunUntil(2 * time.Second)
	fs.Finish()

	met := net.Metrics()
	sent := met.Get(obs.PacketsSent)
	terminal := met.Get(obs.PacketsDelivered) + dataDropped(met)
	if sent != terminal+fs.Totals().InFlightEnd {
		t.Errorf("conservation: sent %d != delivered+drops %d + inflight %d",
			sent, terminal, fs.Totals().InFlightEnd)
	}
	if sent == 0 {
		t.Fatal("no fluid traffic accounted")
	}
}

// TestHybridDemotion drives a route change through a hybrid FlowSet: the
// affected flow demotes to real packets for the guard window, re-absorbs,
// and total accounting stays exact.
func TestHybridDemotion(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	tl := obs.NewTimeline()
	net := FromGraph(s, g, DefaultConfig(), TimelineObserver(tl))
	net.Node(0).SetRoute(3, 1)
	net.Node(1).SetRoute(3, 3)
	net.Node(2).SetRoute(3, 3)

	fs := net.AttachFlows(FlowSetConfig{
		Start: time.Second, Stop: 3 * time.Second,
		GuardWindow: 100 * time.Millisecond, Hybrid: true,
	})
	fs.Add(0, 3, 50*time.Millisecond, 1000, 64)

	// Reroute 0→3 onto the lower path mid-run: the hook settles the old
	// path's accrual first, then demotes the flow.
	s.ScheduleAt(1500*time.Millisecond, func() { net.Node(0).SetRoute(3, 2) })
	s.RunUntil(3 * time.Second)
	fs.Finish()

	met := net.Metrics()
	if d, r := met.Get(obs.FluidDemotions), met.Get(obs.FluidReabsorptions); d != 1 || r != 1 {
		t.Errorf("demotions=%d reabsorptions=%d, want 1/1", d, r)
	}
	sent, delivered := met.Get(obs.PacketsSent), met.Get(obs.PacketsDelivered)
	if sent != 40 { // ticks at 1.00, 1.05, ..., 2.95
		t.Errorf("sent = %d, want 40", sent)
	}
	if delivered != sent {
		t.Errorf("delivered = %d of %d; counters: %v", delivered, sent, met.Snapshot())
	}
	// The demoted window emitted real packets: the packet engine saw them.
	if tot := fs.Totals(); tot.Sent >= sent {
		t.Errorf("fluid accounted all %d packets; expected a packet-simulated demotion window", tot.Sent)
	}
	if got := inFlight(met); got != 0 {
		t.Errorf("in-flight at end = %d, want 0", got)
	}
	demotes, absorbs := 0, 0
	for _, r := range tl.Records() {
		switch r.Kind {
		case obs.KindFluidDemote:
			demotes++
		case obs.KindFluidAbsorb:
			absorbs++
		}
	}
	if demotes != 1 || absorbs != 1 {
		t.Errorf("timeline demotes=%d absorbs=%d, want 1/1", demotes, absorbs)
	}
}

// TestHybridLinkFailureDemotes pins the link-event path: failing a link
// under a hybrid FlowSet demotes exactly the flows crossing it, and settles
// only the destination groups whose forwarding tree crosses it.
func TestHybridLinkFailureDemotes(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	net := FromGraph(s, g, DefaultConfig(), nil)
	net.Node(0).SetRoute(3, 1)
	net.Node(1).SetRoute(3, 3)
	net.Node(2).SetRoute(3, 3)
	net.Node(1).SetRoute(2, 0) // unrelated destination group
	net.Node(0).SetRoute(2, 2)

	fs := net.AttachFlows(FlowSetConfig{
		Start: time.Second, Stop: 3 * time.Second,
		GuardWindow: 200 * time.Millisecond, Hybrid: true,
	})
	fs.Add(0, 3, 50*time.Millisecond, 1000, 64) // crosses 1-3
	fs.Add(1, 2, 50*time.Millisecond, 1000, 64) // does not
	met := net.Metrics()
	var settledByEvent uint64
	s.ScheduleAt(1500*time.Millisecond, func() {
		before := met.Get(obs.FluidSettles)
		net.FailLink(1, 3)
		settledByEvent = met.Get(obs.FluidSettles) - before
	})
	s.RunUntil(3 * time.Second)
	fs.Finish()

	if got := met.Get(obs.FluidDemotions); got != 1 {
		t.Errorf("demotions = %d, want 1 (only the flow crossing the failed link)", got)
	}
	if settledByEvent != 1 {
		t.Errorf("the link event settled %d groups, want 1: neither end of 1-3 forwards destination 2's packets to the other", settledByEvent)
	}
	// The deferred group lost nothing by waiting: all 40 ticks of 1->2 are
	// delivered, beside the 10 that 0->3 emitted before its link failed.
	if sent := met.Get(obs.PacketsSent); sent != 80 {
		t.Errorf("sent = %d, want 80", sent)
	}
	if got := fs.Totals().Delivered; got != 50 {
		t.Errorf("fluid delivered = %d, want 50", got)
	}
}

// TestFluidLinkEventInTail pins what a link event within one path latency of
// Stop books for a group that does not cross the link: the tick emitted 2 ms
// before Stop on a 3.6 ms path is in flight at Stop — as the packet engine
// leaves it — whether the group's settle is deferred to Finish or runs at
// the event.
func TestFluidLinkEventInTail(t *testing.T) {
	const (
		interval = 50 * time.Millisecond
		start    = time.Second
		stop     = 1952 * time.Millisecond // 20 ticks; the last at 1.95 s
		failAt   = 1951 * time.Millisecond
	)
	build := func() (*sim.Simulator, *Network) {
		g := topology.NewGraph(4)
		g.AddEdge(0, 1)
		g.AddEdge(1, 3)
		g.AddEdge(0, 2)
		g.AddEdge(2, 3)
		s := sim.New(1)
		net := FromGraph(s, g, DefaultConfig(), nil)
		net.Node(1).SetRoute(2, 0) // 1→0→2 never touches the 1-3 link
		net.Node(0).SetRoute(2, 2)
		return s, net
	}

	ps, pnet := build()
	StartCBR(pnet.Node(1), 2, interval, 1000, 64, start, stop)
	ps.ScheduleAt(failAt, func() { pnet.FailLink(1, 3) })
	ps.RunUntil(stop)
	pmet := pnet.Metrics()
	wantSent, wantDelivered := pmet.Get(obs.PacketsSent), pmet.Get(obs.PacketsDelivered)
	if wantSent != 20 || wantDelivered != 19 || inFlight(pmet) != 1 {
		t.Fatalf("packet reference = sent %d delivered %d inflight %d, want 20/19/1", wantSent, wantDelivered, inFlight(pmet))
	}

	for _, eager := range []bool{false, true} {
		s, net := build()
		fs := net.AttachFlows(FlowSetConfig{Start: start, Stop: stop, Hybrid: true})
		fs.Add(1, 2, interval, 1000, 64)
		s.ScheduleAt(failAt, func() {
			if eager {
				refLinkChanged(fs, 1, 3) // settles every group at the event
			}
			net.FailLink(1, 3)
		})
		s.RunUntil(stop)
		met := net.Metrics()
		if got := met.Get(obs.FluidSettles); (got == 1) != eager {
			t.Errorf("eager=%v: %d settles before Finish", eager, got)
		}
		fs.Finish()
		if sent, delivered := met.Get(obs.PacketsSent), met.Get(obs.PacketsDelivered); sent != wantSent || delivered != wantDelivered || inFlight(met) != 1 {
			t.Errorf("eager=%v: sent %d delivered %d inflight %d, packet engine says %d/%d/1",
				eager, sent, delivered, inFlight(met), wantSent, wantDelivered)
		}
	}
}

// TestFluidLinkEventSettlesOnlyCrossingGroups is the laziness guard at a
// size where it matters: on a 300-node BA graph carrying 20,000 flows, one
// link failure settles the destination groups whose shortest-path tree
// crosses the link, plus the queue-limited ones, and nothing else. A
// linkChanged that settles every group fails here, not in a benchmark.
func TestFluidLinkEventSettlesOnlyCrossingGroups(t *testing.T) {
	const n = 300
	g := topology.BarabasiAlbert(n, 2, 1)
	s := sim.New(1)
	net := FromGraph(s, g, DefaultConfig(), nil)
	shortestPathRoutes(net, g)
	fs := net.AttachFlows(FlowSetConfig{Start: time.Second, Stop: 3 * time.Second, Hybrid: true, Flows: 20_003})
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20_000; k++ {
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		fs.Add(src, dst, 100*time.Millisecond, 100, 64)
	}
	const hot = NodeID(n - 1) // three 6 Mb/s flows oversubscribe a 10 Mb/s link
	for k := NodeID(0); k < 3; k++ {
		fs.Add(k, hot, 2*time.Millisecond, 1500, 64)
	}

	// Fail the busiest of the links that at most a tenth of the destination
	// trees cross (on this graph a link carries anywhere from 3 to 298). A
	// group is expected to settle when it is the limited one or the FIB entry
	// for its destination at either end of the link is the other end: there
	// are no ECMP sets or backup chains here.
	fs.index()
	onLink := func(g flowGroup, a, b NodeID) bool {
		na, _ := net.Node(a).NextHop(g.dst)
		nb, _ := net.Node(b).NextHop(g.dst)
		return g.dst == hot || na == b || nb == a
	}
	var a, b NodeID
	var want uint64
	for _, l := range net.Links() {
		var c uint64
		for _, g := range fs.groups {
			if onLink(g, l.edge.A, l.edge.B) {
				c++
			}
		}
		if c > want && c <= uint64(len(fs.groups)/10) {
			a, b, want = l.edge.A, l.edge.B, c
		}
	}
	// The flows to demote are the ones whose path, walked hop by hop,
	// traverses the link; all of them belong to groups expected to settle.
	var crossing uint64
	for _, g := range fs.groups {
		for i := g.lo; i < g.hi; i++ {
			if !refPathTouches(fs, fs.src[i], g.dst, a, b) {
				continue
			}
			if !onLink(g, a, b) {
				t.Fatalf("flow %d->%d crosses %d-%d, but neither end's FIB entry for %d names the other", fs.src[i], g.dst, a, b, g.dst)
			}
			crossing++
		}
	}
	met := net.Metrics()
	var settled, demoted uint64
	s.ScheduleAt(1500*time.Millisecond, func() {
		settled, demoted = met.Get(obs.FluidSettles), met.Get(obs.FluidDemotions)
		net.FailLink(a, b)
		settled = met.Get(obs.FluidSettles) - settled
		demoted = met.Get(obs.FluidDemotions) - demoted
	})
	s.RunUntil(1600 * time.Millisecond)

	if !fs.groups[fs.groupOf[hot]].limited {
		t.Fatalf("the group toward %d is not queue-limited", hot)
	}
	if demoted == 0 || demoted != crossing {
		t.Fatalf("failing %d-%d demoted %d flows, want the %d (> 0) that cross it", a, b, demoted, crossing)
	}
	if settled != want {
		t.Errorf("failing %d-%d settled %d groups, want %d: the trees crossing it and the queue-limited group", a, b, settled, want)
	}
}

// TestFluidAddAfterDemotionPanics pins the registration rule: a demoted
// flow's pending packet tick names the flow by position, and indexing a new
// flow would move it.
func TestFluidAddAfterDemotionPanics(t *testing.T) {
	s, net, fs := fluidLine(t, 4, FlowSetConfig{Start: time.Second, Stop: 3 * time.Second, Hybrid: true})
	fs.Add(0, 3, 50*time.Millisecond, 1000, 64)
	s.RunUntil(1500 * time.Millisecond)
	net.FailLink(1, 2)
	if got := net.Metrics().Get(obs.FluidDemotions); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
	wantAddPanic(t, fs)
}

// wantAddPanic adds one more flow and fails the test unless that panics
// with the registration rule's diagnostic.
func wantAddPanic(t *testing.T, fs *FlowSet) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "after Start or after a demotion") {
			t.Errorf("late Add: recovered %q, want the registration-rule panic", msg)
		}
	}()
	fs.Add(1, 3, 50*time.Millisecond, 1000, 64)
}

// TestFluidAddAfterStartPanics is the same rule's predictable half: the
// network's Start closes registration whether or not anything was demoted.
func TestFluidAddAfterStartPanics(t *testing.T) {
	_, net, fs := fluidLine(t, 4, FlowSetConfig{Start: time.Second, Stop: 3 * time.Second})
	fs.Add(0, 3, 50*time.Millisecond, 1000, 64)
	net.Start()
	wantAddPanic(t, fs)
}

// TestFluidSettleZeroAlloc is the satellite guard: once the per-epoch
// scratch (presized to NetworkSize) is warm, a settlement recompute
// allocates nothing.
func TestFluidSettleZeroAlloc(t *testing.T) {
	s := sim.New(1)
	net := FromGraph(s, topology.Line(8), DefaultConfig(), nil)
	for i := 0; i < 7; i++ {
		net.Node(NodeID(i)).SetRoute(7, NodeID(i+1))
	}
	fs := net.AttachFlows(FlowSetConfig{Start: 0, Stop: time.Hour})
	for i := 0; i < 4; i++ {
		fs.Add(NodeID(i), 7, 10*time.Millisecond, 1000, 64)
	}
	now := time.Duration(0)
	step := func() {
		now += 10 * time.Millisecond
		s.RunUntil(now)
		fs.Finish() // settles every group at now, full fate recompute
	}
	step() // warm the scratch
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("settle recompute allocates %.1f times per epoch, want 0", allocs)
	}
	if net.Metrics().Get(obs.PacketsDelivered) == 0 {
		t.Fatalf("no traffic settled: %v", net.Metrics().Snapshot())
	}
}

// TestFluidChangePassesZeroAlloc extends the guard to the change hooks: a
// link event (crossing test, settle, memoized demotion walk over every flow
// of the group) and a FIB-change demotion pass allocate nothing. The changed
// region lies off every flow's path, so the passes walk without demoting — a
// demotion schedules an event, which is the event queue's allocation to pin.
func TestFluidChangePassesZeroAlloc(t *testing.T) {
	// 0-1-2-3 carries the flows toward 3; 4 hangs off 2 and forwards to it,
	// 5 hangs off 4, and neither sources a flow.
	g := topology.Line(4)
	g.AddNode()
	g.AddNode()
	g.AddEdge(2, 4)
	g.AddEdge(4, 5)
	s := sim.New(1)
	net := FromGraph(s, g, DefaultConfig(), nil)
	for i := NodeID(0); i < 3; i++ {
		net.Node(i).SetRoute(3, i+1)
	}
	net.Node(4).SetRoute(3, 2)
	net.Node(5).SetRoute(3, 4)
	fs := net.AttachFlows(FlowSetConfig{Start: 0, Stop: time.Hour, Hybrid: true})
	for i := NodeID(0); i < 3; i++ {
		fs.Add(i, 3, 10*time.Millisecond, 1000, 64)
	}
	now := time.Duration(0)
	step := func() {
		now += 10 * time.Millisecond
		s.RunUntil(now)
		fs.linkChanged(2, 4) // 4 forwards destination 3 via 2: the group is on the link
		fs.fibChanged(4, 3)  // a node other nodes forward through
		fs.fibChanged(5, 3)  // a node nothing forwards through
	}
	step() // warm the scratch
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("a link event and two FIB-change passes allocate %.1f times, want 0", allocs)
	}
	if settles, demotions := net.Metrics().Get(obs.FluidSettles), net.Metrics().Get(obs.FluidDemotions); settles < 100 || demotions != 0 {
		t.Fatalf("settles = %d, demotions = %d: the passes did not run as built", settles, demotions)
	}
}
