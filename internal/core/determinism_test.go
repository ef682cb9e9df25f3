package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"routeconv/internal/routing/bgp"
)

// goldenConfig is the reference scenario pinned by TestGoldenTrialResults:
// one trial of the paper's default degree-4 setup, seed 1, truncated to 60 s
// past the failure so the whole table runs in seconds.
func goldenConfig(k ProtocolKind) Config {
	cfg := DefaultConfig()
	cfg.Protocol = k
	cfg.Trials = 1
	cfg.End = cfg.FailAt + 60*time.Second
	cfg.Seed = 1
	return cfg
}

// goldenDampingConfig is the flap-damping reference scenario: BGP3 with
// RFC 2439 damping on a link that flaps five times. It exercises the
// damper's penalty/suppression state machine and its reuse timers, so the
// path-interning and dense-RIB rewrite is pinned on this configuration
// too.
func goldenDampingConfig() Config {
	cfg := goldenConfig(ProtoBGP3)
	cfg.Scenario = "failpath @400s restore=3s flaps=5"
	dcfg := bgp.DefaultDampingConfig()
	dcfg.HalfLife = 60 * time.Second
	cfg.BGP3.Damping = &dcfg
	return cfg
}

// TestGoldenTrialResults pins the exact outcome of one reference trial per
// protocol configuration. The values were regenerated when jitter and
// traffic randomness moved from the shared simulator RNG to per-node and
// per-source splitmix64 streams and trace recording became
// instant-granular (the changes that make trial results
// shard-count-invariant); any engine or forwarding-path change that shifts
// event ordering, random-number consumption, or drop accounting shows up
// here as a diff, not as a silent behaviour change.
func TestGoldenTrialResults(t *testing.T) {
	type golden struct {
		name                          string
		config                        func() Config
		sent, delivered               int
		noRoute, ttl, linkFail, queue int
		routingConv, fwdConv          time.Duration
		drops, routeChanges, paths    int
	}
	configFor := func(k ProtocolKind) func() Config {
		return func() Config { return goldenConfig(k) }
	}
	goldens := []golden{
		{name: "rip", config: configFor(ProtoRIP), sent: 1400, delivered: 1241, noRoute: 158, ttl: 0, linkFail: 1, queue: 0, routingConv: 23121801600, fwdConv: 17023124526, drops: 159, routeChanges: 3335, paths: 9},
		{name: "dbf", config: configFor(ProtoDBF), sent: 1400, delivered: 1326, noRoute: 73, ttl: 0, linkFail: 1, queue: 0, routingConv: 11147311771, fwdConv: 8077917168, drops: 74, routeChanges: 2817, paths: 6},
		{name: "bgp", config: configFor(ProtoBGP), sent: 1400, delivered: 1399, noRoute: 0, ttl: 0, linkFail: 1, queue: 0, routingConv: 55608000, fwdConv: 54265600, drops: 1, routeChanges: 3866, paths: 10},
		{name: "bgp3", config: configFor(ProtoBGP3), sent: 1400, delivered: 1399, noRoute: 0, ttl: 0, linkFail: 1, queue: 0, routingConv: 55608000, fwdConv: 54265600, drops: 1, routeChanges: 3914, paths: 8},
		{name: "ls", config: configFor(ProtoLS), sent: 1400, delivered: 1399, noRoute: 0, ttl: 0, linkFail: 1, queue: 0, routingConv: 54179200, fwdConv: 54179200, drops: 1, routeChanges: 2627, paths: 8},
		{name: "bgp3-damping", config: goldenDampingConfig, sent: 1400, delivered: 1360, noRoute: 0, ttl: 38, linkFail: 2, queue: 0, routingConv: 27054951200, fwdConv: 8180116800, drops: 40, routeChanges: 4298, paths: 12},
	}
	for _, g := range goldens {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			tr, c, err := TraceObserved(g.config(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Sent != g.sent || tr.Delivered != g.delivered {
				t.Errorf("sent/delivered = %d/%d, want %d/%d", tr.Sent, tr.Delivered, g.sent, g.delivered)
			}
			if tr.NoRouteDrops != g.noRoute || tr.TTLDrops != g.ttl ||
				tr.LinkFailureDrops != g.linkFail || tr.QueueDrops != g.queue {
				t.Errorf("drops (noRoute/ttl/linkFail/queue) = %d/%d/%d/%d, want %d/%d/%d/%d",
					tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops, tr.QueueDrops,
					g.noRoute, g.ttl, g.linkFail, g.queue)
			}
			if tr.RoutingConvergence != g.routingConv {
				t.Errorf("RoutingConvergence = %d, want %d", tr.RoutingConvergence, g.routingConv)
			}
			if tr.ForwardingConvergence != g.fwdConv {
				t.Errorf("ForwardingConvergence = %d, want %d", tr.ForwardingConvergence, g.fwdConv)
			}
			if len(c.Drops) != g.drops {
				t.Errorf("len(Drops) = %d, want %d", len(c.Drops), g.drops)
			}
			if got := len(fibRecords(c)); got != g.routeChanges {
				t.Errorf("FIB records = %d, want %d", got, g.routeChanges)
			}
			if len(c.PathHistory) != g.paths {
				t.Errorf("len(PathHistory) = %d, want %d", len(c.PathHistory), g.paths)
			}
		})
	}
}

// TestTraceRepeatable runs the same seeded trial twice and requires the
// results to be identical down to every recorded event: same TrialResult
// (compared textually so NaN delay bins compare equal), same data- and
// control-drop vectors, same record and path-sample streams.
func TestTraceRepeatable(t *testing.T) {
	for _, k := range []ProtocolKind{ProtoRIP, ProtoBGP} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(k)
			tr1, c1, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr2, c2, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s1, s2 := fmt.Sprintf("%+v", tr1), fmt.Sprintf("%+v", tr2); s1 != s2 {
				t.Errorf("TrialResult differs between identical runs:\n run1: %s\n run2: %s", s1, s2)
			}
			if !reflect.DeepEqual(c1.Drops, c2.Drops) {
				t.Error("drop vectors differ between identical runs")
			}
			if !reflect.DeepEqual(c1.ControlDrops, c2.ControlDrops) {
				t.Error("control-drop vectors differ between identical runs")
			}
			if !reflect.DeepEqual(c1.Timeline(), c2.Timeline()) {
				t.Error("record streams differ between identical runs")
			}
			if !reflect.DeepEqual(c1.PathHistory, c2.PathHistory) {
				t.Error("path-sample streams differ between identical runs")
			}
		})
	}
}
