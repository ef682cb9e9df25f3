package trace

import (
	"testing"
	"testing/quick"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func TestFirstLoop(t *testing.T) {
	cases := []struct {
		name     string
		hops     []netsim.NodeID
		wantNode netsim.NodeID
		wantLen  int
		wantOK   bool
	}{
		{"empty", nil, 0, 0, false},
		{"straight", []netsim.NodeID{1, 2, 3, 4}, 0, 0, false},
		{"two-hop loop", []netsim.NodeID{1, 2, 1, 2, 3}, 1, 2, true},
		{"three-hop loop", []netsim.NodeID{5, 1, 2, 3, 1, 9}, 1, 3, true},
		{"immediate bounce", []netsim.NodeID{7, 8, 7}, 7, 2, true},
		{"loop at end", []netsim.NodeID{1, 2, 3, 2}, 2, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node, length, ok := FirstLoop(c.hops)
			if ok != c.wantOK || node != c.wantNode || length != c.wantLen {
				t.Errorf("FirstLoop(%v) = %d, %d, %v; want %d, %d, %v",
					c.hops, node, length, ok, c.wantNode, c.wantLen, c.wantOK)
			}
		})
	}
}

// Property: FirstLoop finds a loop exactly when the trace has a duplicate.
func TestPropertyFirstLoopIffDuplicate(t *testing.T) {
	f := func(raw []uint8) bool {
		hops := make([]netsim.NodeID, len(raw))
		seen := make(map[netsim.NodeID]bool)
		hasDup := false
		for i, r := range raw {
			id := netsim.NodeID(r % 16)
			hops[i] = id
			if seen[id] {
				hasDup = true
			}
			seen[id] = true
		}
		_, _, ok := FirstLoop(hops)
		return ok == hasDup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoopEscapesEndToEnd(t *testing.T) {
	// Ring 0-1-2-3: route 0→1→2→1... then repair mid-flight so the packet
	// escapes the loop and reaches 3.
	s := sim.New(1)
	c := NewCollector(0, 3, Options{})
	cfg := netsim.DefaultConfig()
	cfg.RecordHops = true
	n := netsim.FromGraph(s, topology.Line(4), cfg, c)
	c.SetNetwork(n)
	n.Node(0).SetRoute(3, 1)
	n.Node(1).SetRoute(3, 2)
	n.Node(2).SetRoute(3, 1) // loop 1↔2
	n.Node(0).SendData(3, 1000, 64)
	// Repair the loop after a few bounces.
	s.Schedule(20*time.Millisecond, func() { n.Node(2).SetRoute(3, 3) })
	s.Run()
	if len(c.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1 (packet should escape the loop)", len(c.Deliveries))
	}
	if !c.Deliveries[0].Looped {
		t.Error("delivery not marked as loop escape")
	}
	if got := c.LoopEscapes(0); got != 1 {
		t.Errorf("LoopEscapes = %d, want 1", got)
	}
	if c.Deliveries[0].Hops <= 3 {
		t.Errorf("escaped packet took %d hops, want > 3", c.Deliveries[0].Hops)
	}
}

func TestLoopEscapesWithoutRecordHops(t *testing.T) {
	// Without hop recording, traces are empty and nothing is flagged.
	s := sim.New(1)
	c := NewCollector(0, 2, Options{})
	n := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.Node(0).SetRoute(2, 1)
	n.Node(1).SetRoute(2, 2)
	n.Node(0).SendData(2, 100, 64)
	s.Run()
	if c.LoopEscapes(0) != 0 {
		t.Error("loop escape flagged without hop recording")
	}
}
