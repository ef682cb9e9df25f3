package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// shardedLine builds a 4-node line 0-1-2-3 split across two shards
// (0,1 | 2,3) with static routes toward node 3 and no protocols, so the
// cut between nodes 1 and 2 exercises the cross-shard outbox path.
func shardedLine() *Network {
	s := sim.New(1)
	net := New(s, DefaultConfig(), nil)
	for i := 0; i < 4; i++ {
		net.AddNode()
	}
	for i := 0; i < 3; i++ {
		net.Connect(NodeID(i), NodeID(i+1))
	}
	net.EnableSharding([]int32{0, 0, 1, 1}, 2)
	for i := 0; i < 3; i++ {
		net.Node(NodeID(i)).SetRoute(3, NodeID(i+1))
	}
	net.Start()
	return net
}

// A quiet network must advance sharded windows without allocating: the
// coordinator barrier, the observer replay merge, the release flush, and
// the outbox drain all run on reused scratch, so idle window churn costs
// zero garbage no matter how many barriers a trial crosses.
func TestShardedQuietWindowAllocs(t *testing.T) {
	net := shardedLine()
	defer net.FinishSharding()
	cur := time.Duration(0)
	advance := func() {
		cur += time.Millisecond
		net.RunSharded(cur)
	}
	for i := 0; i < 16; i++ {
		advance()
	}
	if avg := testing.AllocsPerRun(1000, advance); avg != 0 {
		t.Errorf("quiet sharded window advance allocates %.1f objects, want 0", avg)
	}
}

// Steady-state cross-shard forwarding must cost at most one object per
// packet, the Packet itself: a one-way flow is allocated on the sending
// shard and recycled into the receiving shard's free list (bounded by
// pktFreeMax), so it is the one path the free lists do not close. The
// per-pair outboxes, the barrier hand-off into the destination shard,
// and the buffered observer events all reuse warmed storage.
func TestShardedCrossTrafficAllocs(t *testing.T) {
	net := shardedLine()
	StartCBR(net.Node(0), 3, time.Millisecond, 1000, 64, 0, time.Hour)
	cur := time.Duration(0)
	advance := func() {
		cur += time.Millisecond
		net.RunSharded(cur)
	}
	// Warm the event arenas, outbox buffers, and observer event slices on
	// both shards: the pipeline is full once deliveries keep pace with
	// sends.
	for i := 0; i < 64; i++ {
		advance()
	}
	const runs = 1000
	avg := testing.AllocsPerRun(runs, advance)
	if avg > 1 {
		t.Errorf("sharded cross-shard forwarding allocates %.1f objects per packet, want 1 (the Packet)", avg)
	}
	net.FinishSharding()
	if got := net.Metrics().Get(obs.PacketsDelivered); got < runs {
		t.Fatalf("delivered %d packets across the shard cut, want ≥ %d", got, runs)
	}
}

// A full-trace sharded run buffers one record per FIB change — tens of
// millions per window-heavy trial — so the record must stay two to a cache
// line and free of pointers (nothing to zero after replay).
func TestRouteEventSize(t *testing.T) {
	if got := unsafe.Sizeof(routeEvent{}); got != 32 {
		t.Errorf("routeEvent is %d bytes, want 32", got)
	}
}

// Every node holds one FIB slot per destination, so the slot's width is
// what the FIB costs at scale; core's allocation ceilings budget 2 bytes.
func TestFIBSlotWidth(t *testing.T) {
	if got := unsafe.Sizeof(fibSlot(0)); got != 2 {
		t.Errorf("a FIB slot is %d bytes, want 2", got)
	}
}

// routeFlipper is an allocation-free source of route changes: every period
// it points node's entry for dst at the other of two neighbors.
type routeFlipper struct {
	node   *Node
	dst    NodeID
	via    [2]NodeID
	period time.Duration
	n      int
}

func (f *routeFlipper) HandleEvent(int32, any) {
	f.n++
	f.node.SetRoute(f.dst, f.via[f.n%2])
	f.node.Sim().ScheduleHandler(f.period, f, 0, nil)
}

// elidingObserver watches route changes toward one destination only and
// counts what a sharded run reports in bulk instead.
type elidingObserver struct {
	recorder
	watched NodeID
	elided  int
	last    time.Duration
}

func (o *elidingObserver) WatchesRoutes(dst NodeID) bool { return dst == o.watched }
func (o *elidingObserver) RoutesElided(n int, last time.Duration) {
	o.elided += n
	if last > o.last {
		o.last = last
	}
}

// Route changes nobody watches must cost a sharded window nothing: they are
// counted on the shard, never buffered, and reported once per barrier. Two
// flippers (one per shard) rewrite entries toward unwatched destinations
// ten times per window; the route buffers never come into existence and the
// barrier stays allocation-free, while the observer still learns the exact
// count and the time of the latest change.
func TestShardedElidedRoutesAllocs(t *testing.T) {
	s := sim.New(1)
	o := &elidingObserver{watched: 3}
	net := New(s, DefaultConfig(), o)
	for i := 0; i < 4; i++ {
		net.AddNode()
	}
	for i := 0; i < 3; i++ {
		net.Connect(NodeID(i), NodeID(i+1))
	}
	net.EnableSharding([]int32{0, 0, 1, 1}, 2)
	net.Start()
	const period = 100 * time.Microsecond
	flippers := []*routeFlipper{
		{node: net.Node(1), dst: 0, via: [2]NodeID{0, 2}, period: period},
		{node: net.Node(2), dst: 1, via: [2]NodeID{1, 3}, period: period},
	}
	for i, f := range flippers {
		f.node.Sim().ScheduleHandlerAt(time.Duration(i+1)*period/4, f, 0, nil)
	}
	cur := time.Duration(0)
	advance := func() {
		cur += time.Millisecond
		net.RunSharded(cur)
	}
	for i := 0; i < 16; i++ {
		advance()
	}
	if avg := testing.AllocsPerRun(1000, advance); avg != 0 {
		t.Errorf("a sharded window of unwatched route changes allocates %.1f objects, want 0", avg)
	}
	for _, ex := range net.shards {
		if cap(ex.routes) != 0 || cap(ex.pkts) != 0 {
			t.Errorf("shard %d buffered observer events (cap %d routes, %d packets) though nothing was watched",
				ex.id, cap(ex.routes), cap(ex.pkts))
		}
	}
	net.FinishSharding()
	if want := flippers[0].n + flippers[1].n; o.elided != want || o.routes != 0 {
		t.Errorf("observer saw %d elided and %d individual route changes, want %d and 0", o.elided, o.routes, want)
	}
	// The last flip fired at or just before the final barrier.
	if o.last <= cur-period || o.last > cur {
		t.Errorf("latest elided change reported at %v, want within (%v, %v]", o.last, cur-period, cur)
	}
}

// The route filter speaks only for FIB changes: a note raised in a window
// next to an elided route change toward an unwatched destination is still
// buffered and replayed.
func TestShardedFilterKeepsNotes(t *testing.T) {
	o := &elidingObserver{watched: 3}
	net := New(sim.New(1), DefaultConfig(), o)
	for i := 0; i < 4; i++ {
		net.AddNode()
	}
	for i := 0; i < 3; i++ {
		net.Connect(NodeID(i), NodeID(i+1))
	}
	net.EnableSharding([]int32{0, 0, 1, 1}, 2)
	net.Start()
	const at = 100 * time.Microsecond
	nd := net.Node(2)
	nd.Sim().ScheduleAt(at, func() {
		nd.SetRoute(0, 1)
		nd.Note(obs.KindWithdrawal, 1, 0)
	})
	net.RunSharded(time.Millisecond)
	net.FinishSharding()
	want := []obs.Record{{At: at, Kind: obs.KindWithdrawal, Node: 2, Peer: 1, Dst: 0}}
	if o.elided != 1 || o.routes != 0 || !reflect.DeepEqual(o.notes, want) {
		t.Errorf("observer saw %d elided and %d individual route changes and notes %+v, want 1, 0 and %+v",
			o.elided, o.routes, o.notes, want)
	}
}

// routeLog records every observer callback with the forwarding state it
// can see at that moment.
type routeLog struct {
	net *Network
	log []string
}

func (r *routeLog) RouteChanged(at time.Duration, node, dst, nh NodeID, removed bool) {
	cur, ok := r.net.Node(node).NextHop(dst)
	path, walkOK := r.net.WalkPath(nil, 0, 3)
	r.log = append(r.log, fmt.Sprintf("%v route %d->%d via %d removed=%v fib=(%d,%v) walk=%v/%v",
		at, node, dst, nh, removed, cur, ok, path, walkOK))
}

func (r *routeLog) PacketDelivered(at time.Duration, pkt *Packet) {
	r.log = append(r.log, fmt.Sprintf("%v delivered %d->%d hops=%d", at, pkt.Src, pkt.Dst, pkt.HopCount))
}

func (r *routeLog) PacketDropped(at time.Duration, where NodeID, pkt *Packet, reason DropReason) {
	r.log = append(r.log, fmt.Sprintf("%v dropped at %d: %v", at, where, reason))
}

func (r *routeLog) Note(rec obs.Record) {
	r.log = append(r.log, fmt.Sprintf("%v note %v %d/%d/%d", rec.At, rec.Kind, rec.Node, rec.Peer, rec.Dst))
}

// An observer that declares no route interest is owed the old contract in
// full: under sharding it receives every route, delivery, drop and note
// event in merged time order, each against the forwarding state of its
// instant (rewind-replay) — the same log a sequential run of the same
// schedule writes. The schedule packs route changes on both shards, a
// delivery, a no-route drop and protocol notes (one right after a route
// change on the same node, one at the same instant as another shard's
// change) into single windows.
func TestShardedUnfilteredObserverSeesEverything(t *testing.T) {
	run := func(sharded bool) []string {
		s := sim.New(1)
		rec := &routeLog{}
		net := New(s, DefaultConfig(), rec)
		rec.net = net
		for i := 0; i < 4; i++ {
			net.AddNode()
		}
		for i := 0; i < 3; i++ {
			net.Connect(NodeID(i), NodeID(i+1))
		}
		if sharded {
			net.EnableSharding([]int32{0, 0, 1, 1}, 2)
		}
		net.Start()
		const us = time.Microsecond
		at := func(node NodeID, t time.Duration, fn func(nd *Node)) {
			nd := net.Node(node)
			nd.Sim().ScheduleAt(t, func() { fn(nd) })
		}
		at(0, 100*us, func(nd *Node) { nd.SetRoute(3, 1) })
		at(2, 150*us, func(nd *Node) { nd.SetRoute(3, 3); nd.Note(obs.KindWithdrawal, 1, 3) })
		at(1, 200*us, func(nd *Node) { nd.SetRoute(3, 2) }) // walk 0→3 completes
		at(3, 200*us, func(nd *Node) { nd.Note(obs.KindRouteFlap, 2, 0) })
		at(2, 250*us, func(nd *Node) { nd.SetRoute(0, 1) })
		at(0, 300*us, func(nd *Node) { nd.SendData(3, 100, 64) })
		at(1, 350*us, func(nd *Node) { nd.ClearRoute(3) }) // walk breaks again
		at(3, 400*us, func(nd *Node) { nd.SetRoute(0, 2) })
		at(1, 450*us, func(nd *Node) { nd.SetRoute(3, 2) })
		at(2, 5000*us, func(nd *Node) { nd.ClearRoute(3) })
		at(3, 5050*us, func(nd *Node) { nd.SetRoute(1, 2) })
		at(1, 5100*us, func(nd *Node) { nd.SendData(3, 100, 64) }) // dropped at 2: no route
		at(2, 7000*us, func(nd *Node) { nd.SetRoute(3, 3) })
		if sharded {
			net.RunSharded(10 * time.Millisecond)
			net.FinishSharding()
		} else {
			s.RunUntil(10 * time.Millisecond)
		}
		return rec.log
	}
	want, got := run(false), run(true)
	if len(want) != 14 {
		t.Fatalf("sequential run logged %d events, want 14 (10 route changes, a delivery, a drop, two notes):\n%s",
			len(want), strings.Join(want, "\n"))
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sharded observer log differs from sequential:\n seq:\n%s\n sharded:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}

// traceLog records the hop trace each delivery shows its observer.
type traceLog struct {
	NopObserver
	traces []string
}

func (l *traceLog) PacketDelivered(_ time.Duration, pkt *Packet) {
	l.traces = append(l.traces, fmt.Sprint(pkt.Trace))
}

// A sharded window buffers each observer callback's packet by value and
// replays it at the barrier — by which time the packet itself may have been
// recycled and sent again. The snapshot must keep its own hop trace: a
// packet delivered at node 2 is reused 40 µs later, inside the same window,
// for a send in the opposite direction, and the first delivery must still
// replay with the path it took.
func TestShardedSnapshotKeepsTraceAfterRecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RecordHops = true
	rec := &traceLog{}
	net := New(sim.New(1), cfg, rec)
	for i := 0; i < 4; i++ {
		net.AddNode()
	}
	for i := 0; i < 3; i++ {
		net.Connect(NodeID(i), NodeID(i+1))
	}
	net.EnableSharding([]int32{0, 0, 0, 1}, 2)
	net.Node(0).SetRoute(2, 1)
	net.Node(1).SetRoute(2, 2)
	net.Node(2).SetRoute(0, 1)
	net.Node(1).SetRoute(0, 0)
	net.Start()
	const us = time.Microsecond
	// 100 bytes: 80 µs on the wire, 1 ms propagation, so 0→2 arrives at 2160 µs.
	net.Node(0).Sim().ScheduleAt(0, func() { net.Node(0).SendData(2, 100, 64) })
	net.Node(2).Sim().ScheduleAt(2200*us, func() { net.Node(2).SendData(0, 100, 64) })
	net.RunSharded(10 * time.Millisecond)
	shard := net.shards[0]
	net.FinishSharding()
	if want := []string{"[0 1 2]", "[2 1 0]"}; !reflect.DeepEqual(rec.traces, want) {
		t.Errorf("replayed delivery traces %v, want %v", rec.traces, want)
	}
	if got := len(shard.pktFree); got != 1 {
		t.Errorf("shard free list holds %d packets, want 1 (the second send must reuse the first packet)", got)
	}
}
