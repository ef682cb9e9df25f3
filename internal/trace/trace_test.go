package trace

import (
	"slices"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// buildLine creates a 0-1-2 line with static routes 0→2 and the collector
// attached, returning everything needed by the tests.
func buildLine(t *testing.T) (*sim.Simulator, *netsim.Network, *Collector) {
	t.Helper()
	s := sim.New(1)
	c := NewCollector(0, 2, Options{})
	n := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.Node(0).SetRoute(2, 1)
	n.Node(1).SetRoute(2, 2)
	return s, n, c
}

func TestRouteChangesRecorded(t *testing.T) {
	_, _, c := buildLine(t)
	c.flush()
	recs := records(c.Timeline())
	if len(recs) != 3 || recs[0].Kind != obs.KindTrialStart {
		t.Fatalf("stream = %+v, want trial_start and 2 FIB changes", recs)
	}
	if r := recs[1]; r.Kind != obs.KindFIBChange || r.Node != 0 || r.Dst != 2 || r.Peer != 1 {
		t.Errorf("first change = %+v", r)
	}
}

func TestPathSampledOnRelevantChange(t *testing.T) {
	_, n, c := buildLine(t)
	c.flush()
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
	c.flush()
	if len(c.PathHistory) != 1 {
		t.Error("unrelated route change added a path sample")
	}
}

func TestSamplePathDedup(t *testing.T) {
	_, _, c := buildLine(t)
	c.flush()
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
	c.flush()
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
	c.flush()
	if got := c.DataDropsAfter(0, netsim.DropNoRoute); got != 1 {
		t.Errorf("no-route drops = %d, want 1", got)
	}
}

func TestDropsForOtherFlowIgnored(t *testing.T) {
	s, n, c := buildLine(t)
	n.Node(2).SendData(0, 1000, 64) // reverse direction: not the observed flow
	s.Run()
	c.flush()
	if got := c.DataDropsAfter(0, netsim.DropNoRoute); got != 0 {
		t.Errorf("drop of another flow counted: %d", got)
	}
}

func TestDeliveryForOtherFlowIgnored(t *testing.T) {
	s := sim.New(1)
	c := NewCollector(0, 2, Options{})
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
	c.flush()

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

func TestControlDropsExcluded(t *testing.T) {
	s := sim.New(1)
	c := NewCollector(0, 1, Options{})
	n := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	n.FailLink(0, 1)
	n.Node(0).SendControl(1, sizeMsg{})
	s.Run()
	c.flush()
	if got := c.DataDropsAfter(0, netsim.DropLinkFailure); got != 0 {
		t.Errorf("control drop counted as data drop: %d", got)
	}
	if len(c.Drops) != 0 || len(c.ControlDrops) != 1 {
		t.Errorf("drops = %+v, control drops = %+v, want one control drop", c.Drops, c.ControlDrops)
	}
}

type sizeMsg struct{}

func (sizeMsg) SizeBytes() int { return 100 }

// A compact collector declares, through netsim.RouteFilter, that it needs
// only its flows' destinations' route changes one by one; a full-record
// collector needs them all. What a sharded run then reports in bulk must add
// to the count and can only move the last-change time forwards: the latest
// elided change of a window may be older than a watched change already
// delivered from the same window.
func TestRouteFilterAndElidedFold(t *testing.T) {
	full := NewCollector(0, 2, Options{})
	for dst := netsim.NodeID(0); dst < 3; dst++ {
		if !full.WatchesRoutes(dst) {
			t.Errorf("full-record collector does not watch destination %d", dst)
		}
	}
	c := NewCollector(0, 2, Options{Compact: true})
	c.AddFlow(1, 4)
	for dst := netsim.NodeID(0); dst < 6; dst++ {
		if got, want := c.WatchesRoutes(dst), dst == 2 || dst == 4; got != want {
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

// records returns the stream's records in order.
func records(tl *obs.Timeline) []obs.Record {
	out := make([]obs.Record, tl.Len())
	for i := range out {
		out[i] = tl.At(i)
	}
	return out
}

// summaryOf returns the stream's convergence summary records.
func summaryOf(c *Collector) []obs.Record {
	var out []obs.Record
	for _, r := range records(c.Timeline()) {
		switch r.Kind {
		case obs.KindFirstFIBChange, obs.KindLastFIBChange, obs.KindConvergenceComplete:
			out = append(out, r)
		}
	}
	return out
}

// Finish closes the stream with the convergence summary, computed from the
// raw change stream: pre-failure churn does not count, nodes come in
// ascending order, and net-zero churn that left no FIB record still counts
// as a change.
func TestConvergenceSummary(t *testing.T) {
	failAt := 10 * time.Second
	s := sim.New(1)
	c := NewCollector(0, 2, Options{Seed: 7, FailAt: failAt})
	n := netsim.FromGraph(s, topology.Line(49), netsim.DefaultConfig(), c)
	c.SetNetwork(n)
	c.RouteChanged(time.Second, 3, 48, 4, false) // before the failure
	c.RouteChanged(time.Second, 25, 48, 24, false)
	c.Note(obs.Record{At: failAt, Kind: obs.KindLinkDown, Node: 24, Peer: 25, Dst: -1})
	c.RouteChanged(failAt+50*time.Millisecond, 24, 48, 17, false)
	c.RouteChanged(failAt+60*time.Millisecond, 25, 48, 0, true)
	c.RouteChanged(failAt+2*time.Second, 24, 48, 31, false)
	// Net-zero churn at 30 s: node 24 flips away and back within the
	// instant, which leaves no FIB record but is the last change anywhere.
	c.RouteChanged(30*time.Second, 24, 48, 29, false)
	c.RouteChanged(30*time.Second, 24, 48, 31, false)
	c.Finish()

	ms := time.Millisecond
	want := []obs.Record{
		{At: failAt + 50*ms, Kind: obs.KindFirstFIBChange, Node: 24, Peer: -1, Dst: -1},
		{At: 30 * time.Second, Kind: obs.KindLastFIBChange, Node: 24, Peer: -1, Dst: -1},
		{At: failAt + 60*ms, Kind: obs.KindFirstFIBChange, Node: 25, Peer: -1, Dst: -1},
		{At: failAt + 60*ms, Kind: obs.KindLastFIBChange, Node: 25, Peer: -1, Dst: -1},
		{At: 30 * time.Second, Kind: obs.KindConvergenceComplete, Node: -1, Peer: -1, Dst: -1},
	}
	if got := summaryOf(c); !slices.Equal(got, want) {
		t.Errorf("summary =\n%+v\nwant\n%+v", got, want)
	}
	if got := c.RoutingConvergence(failAt); got != 20*time.Second {
		t.Errorf("RoutingConvergence = %v, want 20s, the summary's convergence_complete", got)
	}
	recs := records(c.Timeline())
	if recs[0] != (obs.Record{Kind: obs.KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: 7}) {
		t.Errorf("stream opens with %+v, want trial_start with the seed", recs[0])
	}
	fibs := 0
	for _, r := range recs {
		if r.Kind == obs.KindFIBChange || r.Kind == obs.KindFIBRemove {
			fibs++
		}
	}
	if fibs != 5 {
		t.Errorf("%d FIB records, want 5: the net-zero flip at 30 s leaves none", fibs)
	}
}

// Within an instant, the committed records depend only on what arrived, not
// on the arrival order: each forwarding entry's net change and every note,
// sorted by content.
func TestInstantCommittedCanonically(t *testing.T) {
	type call struct {
		note      bool
		node, dst netsim.NodeID
		nh        netsim.NodeID
		kind      obs.Kind
	}
	calls := []call{
		{node: 7, dst: 1, nh: 2},
		{note: true, kind: obs.KindWithdrawal, node: 7, dst: 1, nh: 2},
		{node: 3, dst: 1, nh: 4},
		{note: true, kind: obs.KindLinkDownDetected, node: 5, nh: 6},
		{node: 3, dst: 0, nh: 2},
		{note: true, kind: obs.KindLinkDownDetected, node: 2, nh: 3},
		{node: 7, dst: 1, nh: 6}, // entry (7, 1) is written twice; 6 wins
	}
	at := 5 * time.Second
	run := func(order []int) []obs.Record {
		s := sim.New(1)
		c := NewCollector(0, 9, Options{})
		c.SetNetwork(netsim.FromGraph(s, topology.Line(10), netsim.DefaultConfig(), c))
		for _, i := range order {
			k := calls[i]
			if k.note {
				c.Note(obs.Record{At: at, Kind: k.kind, Node: int32(k.node), Peer: int32(k.nh), Dst: int32(k.dst)})
			} else {
				c.RouteChanged(at, k.node, k.dst, k.nh, false)
			}
		}
		c.flush()
		return records(c.Timeline())[1:]
	}
	want := []obs.Record{
		{At: at, Kind: obs.KindLinkDownDetected, Node: 2, Peer: 3},
		{At: at, Kind: obs.KindLinkDownDetected, Node: 5, Peer: 6},
		{At: at, Kind: obs.KindFIBChange, Node: 3, Dst: 0, Peer: 2},
		{At: at, Kind: obs.KindFIBChange, Node: 3, Dst: 1, Peer: 4},
		{At: at, Kind: obs.KindFIBChange, Node: 7, Dst: 1, Peer: 6},
		{At: at, Kind: obs.KindWithdrawal, Node: 7, Dst: 1, Peer: 2},
	}
	if got := run([]int{0, 1, 2, 3, 4, 5, 6}); !slices.Equal(got, want) {
		t.Errorf("instant committed as\n%+v\nwant\n%+v", got, want)
	}
	// Any order that keeps the two writes to (7, 1) in sequence.
	if got := run([]int{5, 4, 3, 0, 2, 1, 6}); !slices.Equal(got, want) {
		t.Errorf("reordered instant committed as\n%+v\nwant\n%+v", got, want)
	}
}
