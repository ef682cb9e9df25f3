package trace

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// buildLine creates a 0-1-2 line with static routes 0→2 and the collector
// attached, returning everything needed by the tests.
func buildLine(t *testing.T) (*sim.Simulator, *netsim.Network, *Collector) {
	t.Helper()
	s := sim.New(1)
	c := NewCollector(0, 2)
	n := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.Node(0).SetRoute(2, 1)
	n.Node(1).SetRoute(2, 2)
	return s, n, c
}

func TestRouteChangesRecorded(t *testing.T) {
	_, _, c := buildLine(t)
	c.Flush()
	if len(c.RouteChanges) != 2 {
		t.Fatalf("recorded %d route changes, want 2", len(c.RouteChanges))
	}
	if c.RouteChanges[0].Node != 0 || c.RouteChanges[0].Dst != 2 || c.RouteChanges[0].NextHop != 1 {
		t.Errorf("first change = %+v", c.RouteChanges[0])
	}
}

func TestPathSampledOnRelevantChange(t *testing.T) {
	_, n, c := buildLine(t)
	c.Flush()
	// Both route changes happen at the same instant, so exactly one sample
	// is committed: the instant's final (complete) walk.
	if len(c.PathHistory) != 1 {
		t.Fatalf("path history = %d entries, want 1 (one per instant)", len(c.PathHistory))
	}
	last := c.PathHistory[len(c.PathHistory)-1]
	if !last.OK || len(last.Path) != 3 {
		t.Errorf("final sample = %+v, want complete 3-node path", last)
	}
	// A route change for an unrelated destination must not add samples.
	n.Node(1).SetRoute(0, 0)
	c.Flush()
	if len(c.PathHistory) != 1 {
		t.Error("unrelated route change added a path sample")
	}
}

func TestSamplePathDedup(t *testing.T) {
	_, _, c := buildLine(t)
	c.Flush()
	before := len(c.PathHistory)
	c.SamplePath()
	c.SamplePath()
	if len(c.PathHistory) != before {
		t.Error("identical consecutive samples were not deduplicated")
	}
}

func TestDeliveriesAndDrops(t *testing.T) {
	s, n, c := buildLine(t)
	n.Node(0).SendData(2, 1000, 64)
	s.Run()
	c.Flush()
	if len(c.Deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(c.Deliveries))
	}
	d := c.Deliveries[0]
	if d.Hops != 2 || d.Delay <= 0 {
		t.Errorf("delivery = %+v", d)
	}
	// Break the flow's path and send again: a no-route drop on the flow.
	n.Node(1).ClearRoute(2)
	n.Node(0).SendData(2, 1000, 64)
	s.Run()
	c.Flush()
	if got := c.DataDropsAfter(0, netsim.DropNoRoute); got != 1 {
		t.Errorf("no-route drops = %d, want 1", got)
	}
}

func TestDropsForOtherFlowIgnored(t *testing.T) {
	s, n, c := buildLine(t)
	n.Node(2).SendData(0, 1000, 64) // reverse direction: not the observed flow
	s.Run()
	c.Flush()
	if got := c.DataDropsAfter(0, netsim.DropNoRoute); got != 0 {
		t.Errorf("drop of another flow counted: %d", got)
	}
}

func TestDeliveryForOtherFlowIgnored(t *testing.T) {
	s := sim.New(1)
	c := NewCollector(0, 2)
	n := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.Node(0).SetRoute(1, 1)
	n.Node(0).SendData(1, 100, 64) // destination 1, not the observed flow
	s.Run()
	if len(c.Deliveries) != 0 {
		t.Error("delivery to a different destination was recorded")
	}
}

func TestConvergenceMetrics(t *testing.T) {
	s, n, c := buildLine(t)
	failAt := 10 * time.Second
	s.Schedule(failAt, func() {
		n.FailLink(1, 2)
		c.SamplePath() // the walk breaks with no route-change event
	})
	// The "protocol" repairs routing 3 s later by removing the route.
	s.Schedule(13*time.Second, func() { n.Node(1).ClearRoute(2) })
	// And 5 s after that finds a new path (restore for simplicity).
	s.Schedule(18*time.Second, func() {
		n.RestoreLink(1, 2)
		n.Node(1).SetRoute(2, 2)
	})
	s.Run()
	c.Flush()

	if got := c.RoutingConvergence(failAt); got != 8*time.Second {
		t.Errorf("RoutingConvergence = %v, want 8s", got)
	}
	if got := c.ForwardingConvergence(failAt); got != 8*time.Second {
		t.Errorf("ForwardingConvergence = %v, want 8s", got)
	}
	// Transient walks after the failure instant: only the restored path at
	// 18 s — the 13 s walk ([0 1], broken) dedups against the sample taken
	// at the failure itself, and the failure-instant sample is excluded.
	if got := c.TransientPaths(failAt); got != 1 {
		t.Errorf("TransientPaths = %v, want 1", got)
	}
}

func TestConvergenceZeroWhenQuiet(t *testing.T) {
	_, _, c := buildLine(t)
	if got := c.RoutingConvergence(time.Hour); got != 0 {
		t.Errorf("RoutingConvergence with no later changes = %v, want 0", got)
	}
	if got := c.ForwardingConvergence(time.Hour); got != 0 {
		t.Errorf("ForwardingConvergence with no later changes = %v, want 0", got)
	}
}

func TestDeliveredIn(t *testing.T) {
	s, n, c := buildLine(t)
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Second, func() { n.Node(0).SendData(2, 100, 64) })
	}
	s.Run()
	if got := c.DeliveredIn(0, 2*time.Second); got != 2 {
		t.Errorf("DeliveredIn[0,2s) = %d, want 2", got)
	}
	if got := c.DeliveredIn(0, time.Hour); got != 5 {
		t.Errorf("DeliveredIn all = %d, want 5", got)
	}
}

func TestControlDropsExcluded(t *testing.T) {
	s := sim.New(1)
	c := NewCollector(0, 1)
	n := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.FailLink(0, 1)
	n.Node(0).SendControl(1, sizeMsg{})
	s.Run()
	c.Flush()
	if got := c.DataDropsAfter(0, netsim.DropLinkFailure); got != 0 {
		t.Errorf("control drop counted as data drop: %d", got)
	}
	if len(c.Drops) != 1 || !c.Drops[0].Control {
		t.Errorf("drops = %+v, want one control drop", c.Drops)
	}
}

type sizeMsg struct{}

func (sizeMsg) SizeBytes() int { return 100 }

// A compact collector declares, through netsim.RouteFilter, that it needs
// only its own destination's route changes one by one; a full-record
// collector needs them all. What a sharded run then reports in bulk must add
// to the count and can only move the last-change time forwards: the latest
// elided change of a window may be older than a watched change already
// delivered from the same window.
func TestRouteFilterAndElidedFold(t *testing.T) {
	full := NewCollector(0, 2)
	for dst := netsim.NodeID(0); dst < 3; dst++ {
		if !full.WatchesRoutes(dst) {
			t.Errorf("full-record collector does not watch destination %d", dst)
		}
	}
	c := NewCollector(0, 2)
	c.SetCompact(true)
	for dst := netsim.NodeID(0); dst < 3; dst++ {
		if got, want := c.WatchesRoutes(dst), dst == 2; got != want {
			t.Errorf("compact collector watches destination %d = %v, want %v", dst, got, want)
		}
	}
	c.RouteChanged(7*time.Second, 1, 2, 2, false)
	c.RoutesElided(40, 5*time.Second) // same window, older than the watched change
	if got := c.NumRouteChanges(); got != 41 {
		t.Errorf("NumRouteChanges = %d, want 41", got)
	}
	if got := c.RoutingConvergence(time.Second); got != 6*time.Second {
		t.Errorf("RoutingConvergence = %v after an older elided batch, want 6s", got)
	}
	c.RoutesElided(2, 9*time.Second)
	if got := c.RoutingConvergence(time.Second); got != 8*time.Second {
		t.Errorf("RoutingConvergence = %v after a newer elided batch, want 8s", got)
	}
	if got := c.NumRouteChanges(); got != 43 {
		t.Errorf("NumRouteChanges = %d, want 43", got)
	}
}
