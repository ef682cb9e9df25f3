package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// Building a network must cost memory proportional to the graph's edges.
// On a power-law graph a node's highest-numbered neighbor is typically far
// above its degree, so any per-node table indexed by neighbor ID — the dense
// port array this guards against — makes bytes per edge grow with n (about
// 6× from 500 to 4000 nodes); the rank-indexed tables keep it flat.
func TestFromGraphAllocIsLinearInEdges(t *testing.T) {
	perEdge := func(n int) float64 {
		g := topology.BarabasiAlbert(n, 2, 1)
		s := sim.New(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := FromGraph(s, g, DefaultConfig(), nil)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(net)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumEdges())
	}
	small, large := perEdge(500), perEdge(4000)
	t.Logf("FromGraph bytes per edge: %.0f at n=500, %.0f at n=4000", small, large)
	if large > 1.25*small {
		t.Errorf("FromGraph allocates %.0f bytes per edge at n=4000 but %.0f at n=500: not linear in edges", large, small)
	}
}

// fibView is what the public API shows of a node's forwarding table.
func fibView(nd *Node, dsts ...NodeID) string {
	out := ""
	for _, d := range dsts {
		nh, ok := nd.NextHop(d)
		out += fmt.Sprintf("%d:(%d,%v) ", d, nh, ok)
	}
	return out
}

// The FIB stores each next hop's rank in the sorted neighbor list. The cases
// here are the places where a rank and a node ID could be confused.
func TestPortTableEdgeCases(t *testing.T) {
	// star builds node 0 with neighbors 2, 5 and 8 among ten nodes.
	star := func(o Observer) (*sim.Simulator, *Network) {
		g := topology.NewGraph(10)
		for _, v := range []topology.NodeID{2, 5, 8} {
			g.AddEdge(0, v)
		}
		s := sim.New(1)
		return s, FromGraph(s, g, DefaultConfig(), o)
	}

	// Connect below, between and above installed next hops shifts ranks;
	// every installed entry must keep pointing at the same neighbor, on the
	// data path too.
	for _, added := range []NodeID{1, 4, 6, 9} {
		t.Run(fmt.Sprintf("connect %d after routes", added), func(t *testing.T) {
			rec := &recorder{}
			s, net := star(rec)
			hub := net.Node(0)
			hub.SetRoute(2, 2)
			hub.SetRoute(5, 5)
			hub.SetRoute(8, 8)
			hub.SetRoute(7, 8)
			hub.SetRoute(3, 5)
			hub.ClearRoute(3)
			before := fibView(hub, 2, 3, 5, 7, 8, added)
			net.Connect(0, added)
			if got := fibView(hub, 2, 3, 5, 7, 8, added); got != before {
				t.Errorf("FIB after Connect(0,%d) = %s, want %s", added, got, before)
			}
			want := []NodeID{2, 5, 8, added}
			slices.Sort(want)
			if !slices.Equal(hub.Neighbors(), want) {
				t.Errorf("neighbors = %v, want %v", hub.Neighbors(), want)
			}
			hub.SetRoute(added, added)
			for _, d := range []NodeID{2, 5, 8, added} {
				hub.SendData(d, 100, 64)
			}
			s.Run()
			if len(rec.delivered) != 4 || len(rec.drops) != 0 {
				t.Errorf("delivered %d of 4 packets, drops %v", len(rec.delivered), rec.drops)
			}
			if path, ok := net.WalkPath(nil, 0, 7); ok || !reflect.DeepEqual(path, []NodeID{0, 8}) {
				t.Errorf("WalkPath(0,7) = %v,%v, want [0 8],false (8 has no route on)", path, ok)
			}
		})
	}

	// A next hop that is a valid rank but not a neighbor ID (1 here), and one
	// beyond every neighbor, are both refused — with the messages the dense
	// port array produced.
	panics := []struct {
		name string
		call func(nd *Node, nh NodeID)
		want string
	}{
		{"SetRoute", func(nd *Node, nh NodeID) { nd.SetRoute(9, nh) }, "netsim: node 0: next hop %d is not a neighbor"},
		{"SetBackupRoutes", func(nd *Node, nh NodeID) { nd.SetBackupRoutes(9, []NodeID{2, nh}) }, "netsim: node 0: backup next hop %d is not a neighbor"},
		{"SetMultipath", func(nd *Node, nh NodeID) { nd.SetMultipath(9, []NodeID{2, nh}) }, "netsim: node 0: multipath next hop %d is not a neighbor"},
		{"SendControl", func(nd *Node, nh NodeID) { nd.SendControl(nh, testMsg{size: 10}) }, "netsim: node 0: SendControl to non-neighbor %d"},
	}
	for _, tc := range panics {
		for _, nh := range []NodeID{1, 9, -1} {
			t.Run(fmt.Sprintf("%s to non-neighbor %d", tc.name, nh), func(t *testing.T) {
				_, net := star(nil)
				defer func() {
					if got, want := recover(), fmt.Sprintf(tc.want, nh); got != want {
						t.Errorf("panic = %v, want %q", got, want)
					}
				}()
				tc.call(net.Node(0), nh)
			})
		}
	}

	// One sharded window sets, clears and re-sets an entry that started
	// empty. The barrier replay rewinds it to "no route" and steps it
	// forward, so each callback sees the entry of its own instant, and the
	// table ends where the shard left it.
	t.Run("shard replay round-trips noRoute", func(t *testing.T) {
		o := &fibWatcher{}
		_, net := star(o)
		o.hub = net.Node(0)
		net.EnableSharding([]int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 2)
		net.Start()
		const us = time.Microsecond
		hub := net.Node(0)
		hub.Sim().ScheduleAt(100*us, func() { hub.SetRoute(7, 8) })
		hub.Sim().ScheduleAt(200*us, func() { hub.ClearRoute(7) })
		hub.Sim().ScheduleAt(300*us, func() { hub.SetRoute(7, 2) })
		hub.Sim().ScheduleAt(400*us, func() { hub.ClearRoute(7) })
		net.RunSharded(900 * us) // below the 1 ms lookahead: one window
		net.FinishSharding()
		want := []string{"7:(8,true) ", "7:(-1,false) ", "7:(2,true) ", "7:(-1,false) "}
		if !reflect.DeepEqual(o.seen, want) {
			t.Errorf("replayed callbacks saw %q, want %q", o.seen, want)
		}
		if got := fibView(hub, 7); got != "7:(-1,false) " {
			t.Errorf("entry after the barrier = %s, want empty", got)
		}
	})
}

// fibWatcher records the hub's entry for destination 7 as each RouteChanged
// callback sees it.
type fibWatcher struct {
	NopObserver
	hub  *Node
	seen []string
}

func (o *fibWatcher) RouteChanged(time.Duration, NodeID, NodeID, NodeID, bool) {
	o.seen = append(o.seen, fibView(o.hub, 7))
}

// The serialization memo grows by doubling: a run of ever larger message
// sizes (a converging table's updates) must not re-copy the memo for each
// new maximum, and a trial with small packets must not pay for the cap.
func TestSerializationCacheGrowsByDoubling(t *testing.T) {
	_, net := benchLine(2)
	ex := net.root
	grows, last := 0, 0
	for size := 40; size < serCacheMax+100; size += 20 {
		if got, want := ex.serialization(size), time.Duration(int64(size)*8*int64(time.Second)/net.cfg.LinkRateBps); got != want {
			t.Fatalf("serialization(%d) = %v, want %v", size, got, want)
		}
		if len(ex.serCache) != last {
			grows++
			last = len(ex.serCache)
		}
		if size == 1000 && last > 4096 {
			t.Errorf("memo holds %d slots after sizes up to 1000 bytes: grown eagerly", last)
		}
	}
	if last != serCacheMax {
		t.Errorf("memo ended at %d slots, want the cap %d", last, serCacheMax)
	}
	if grows > 16 {
		t.Errorf("memo regrew %d times over %d ascending sizes, want O(log) doublings", grows, serCacheMax/20)
	}
}
