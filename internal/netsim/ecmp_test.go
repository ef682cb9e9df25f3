package netsim

import (
	"testing"

	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// diamond builds 0-(1|2)-3 with primary 0→1 plus an ECMP set {1, 2}.
func diamond(t *testing.T) (*sim.Simulator, *Network, *recorder) {
	t.Helper()
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
	n.Node(0).SetMultipath(3, []NodeID{1, 2})
	n.Node(1).SetRoute(3, 3)
	n.Node(2).SetRoute(3, 3)
	return s, n, rec
}

func TestECMPFlowStaysOnOnePath(t *testing.T) {
	s, n, rec := diamond(t)
	for i := 0; i < 10; i++ {
		n.Node(0).SendData(3, 100, 64)
	}
	s.Run()
	if len(rec.delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(rec.delivered))
	}
	first := rec.delivered[0].Trace[1]
	for _, pkt := range rec.delivered {
		if pkt.Trace[1] != first {
			t.Fatalf("one flow used two paths: %v vs %v", first, pkt.Trace[1])
		}
	}
}

func TestECMPSpreadsDistinctFlows(t *testing.T) {
	// Many destinations on node 3's side is not possible in this diamond;
	// instead vary the source: flows (src, dst) hash differently.
	g := topology.NewGraph(8)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	for i := NodeID(4); i <= 7; i++ {
		g.AddEdge(i, 0)
	}
	rec := &recorder{}
	s := sim.New(1)
	cfg := DefaultConfig()
	cfg.RecordHops = true
	n := FromGraph(s, g, cfg, rec)
	n.Node(0).SetRoute(3, 1)
	n.Node(0).SetMultipath(3, []NodeID{1, 2})
	n.Node(1).SetRoute(3, 3)
	n.Node(2).SetRoute(3, 3)
	for i := NodeID(4); i <= 7; i++ {
		n.Node(i).SetRoute(3, 0)
	}
	for i := NodeID(4); i <= 7; i++ {
		n.Node(i).SendData(3, 100, 64)
	}
	s.Run()
	used := map[NodeID]bool{}
	for _, pkt := range rec.delivered {
		used[pkt.Trace[2]] = true // hop after node 0
	}
	if len(used) < 2 {
		t.Errorf("four flows all hashed onto one path; ECMP not spreading (used %v)", used)
	}
}

func TestECMPSkipsDownLink(t *testing.T) {
	s, n, rec := diamond(t)
	n.FailLink(0, 1)
	for i := 0; i < 5; i++ {
		n.Node(0).SendData(3, 100, 64)
	}
	s.Run()
	if len(rec.delivered) != 5 {
		t.Fatalf("delivered %d, want 5 (all via the surviving path)", len(rec.delivered))
	}
	for _, pkt := range rec.delivered {
		if pkt.Trace[1] != 2 {
			t.Errorf("packet used dead path: %v", pkt.Trace)
		}
	}
}

func TestECMPClearedBySmallSet(t *testing.T) {
	_, n, _ := diamond(t)
	n.Node(0).SetMultipath(3, []NodeID{1})
	if n.Node(0).multi[3] != nil {
		t.Error("single-entry multipath set not cleared")
	}
	n.Node(0).SetMultipath(3, nil)
	if n.Node(0).multi[3] != nil {
		t.Error("nil multipath set not cleared")
	}
}

func TestECMPNonNeighborPanics(t *testing.T) {
	_, n, _ := diamond(t)
	defer func() {
		if recover() == nil {
			t.Error("multipath to non-neighbor did not panic")
		}
	}()
	n.Node(0).SetMultipath(3, []NodeID{1, 3})
}
