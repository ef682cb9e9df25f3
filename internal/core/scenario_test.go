package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/scenario"
	"routeconv/internal/topology"
)

// TestLegacyScriptEquivalence is the scenario engine's compatibility
// contract: a legacy config (FailAt/RestoreAfter/Flaps) and the explicit
// script it compiles to must produce bit-for-bit identical trials — same
// TrialResult, same drop, route-change, and path-sample streams — on every
// golden scenario. This is what lets the engine replace the hard-coded
// failure schedule without regenerating a single golden fixture.
func TestLegacyScriptEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			legacy := sc.config()
			ref, refC, err := Trace(legacy, 0)
			if err != nil {
				t.Fatal(err)
			}

			scripted := sc.config()
			b := scenario.NewBuilder()
			b.FailPath(scripted.FailAt, scripted.RestoreAfter, scripted.Flaps)
			for _, at := range scripted.ExtraFailAts {
				b.FailRandom(at)
			}
			scripted.Script = b.Script()
			scripted.RestoreAfter = 0
			scripted.Flaps = 0
			scripted.ExtraFailAts = nil

			tr, c, err := Trace(scripted, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%+v", tr), fmt.Sprintf("%+v", ref); got != want {
				t.Errorf("scripted trial differs from legacy:\n legacy:   %s\n scripted: %s", want, got)
			}
			if !reflect.DeepEqual(refC.Drops, c.Drops) {
				t.Error("drop vectors differ")
			}
			if !reflect.DeepEqual(refC.RouteChanges, c.RouteChanges) {
				t.Error("route-change streams differ")
			}
			if !reflect.DeepEqual(refC.PathHistory, c.PathHistory) {
				t.Error("path-sample streams differ")
			}
		})
	}
}

// TestScenarioTextEquivalence checks the text grammar against the builder:
// the damping golden's schedule written as a script string produces the
// same trial as the legacy config.
func TestScenarioTextEquivalence(t *testing.T) {
	legacy := goldenDampingConfig()
	ref, refC, err := Trace(legacy, 0)
	if err != nil {
		t.Fatal(err)
	}
	scripted := goldenDampingConfig()
	scripted.Scenario = "failpath @400s restore=3s flaps=5"
	scripted.RestoreAfter = 0
	scripted.Flaps = 0
	tr, c, err := Trace(scripted, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", tr), fmt.Sprintf("%+v", ref); got != want {
		t.Errorf("text-scripted trial differs from legacy:\n legacy: %s\n script: %s", want, got)
	}
	if !reflect.DeepEqual(refC.Drops, c.Drops) {
		t.Error("drop vectors differ")
	}
}

// TestScenarioNodeFailureConservation checks the packet-conservation
// identity under a scripted node failure and recovery: every sent packet is
// delivered, dropped for exactly one cause, or in flight at the end.
func TestScenarioNodeFailureConservation(t *testing.T) {
	cfg := goldenConfig(ProtoRIP)
	cfg.Metrics = true
	cfg.Script = scenario.NewBuilder().
		FailNode(400*time.Second, 24).
		RecoverNode(420*time.Second, 24).
		Script()
	tr, _, err := TraceObserved(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["drops.random_loss"] +
		m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated: accounted %d, sent %d\nsnapshot: %v", accounted, m["packets.sent"], m)
	}
	if m["scenario.events"] != 2 {
		t.Errorf("scenario.events = %d, want 2", m["scenario.events"])
	}
	if m["scenario.node_fails"] != 1 {
		t.Errorf("scenario.node_fails = %d, want 1", m["scenario.node_fails"])
	}
	if m["scenario.link_fails"] == 0 {
		t.Error("scenario.link_fails = 0 — the node failure took no links down")
	}
}

// TestScenarioOverlappingHolds runs scripts whose link, node and churn events
// overlap on the adjacent mesh routers 24 and 25, and checks the end state
// through the trace's network: a link is down exactly while something still
// holds it — an explicit failure awaiting its restore, or a failed endpoint —
// whoever took it down first. (The first case left 24-25 down forever when
// node recovery restored per-node "links I took" lists.)
func TestScenarioOverlappingHolds(t *testing.T) {
	e := topology.NewEdge(24, 25)
	cases := []struct {
		name, script string
		stillDown    bool // 24-25 at the end of the run
		churn        bool // also check when 24-25 came up, in the timeline
	}{
		{name: "adjacent node outages",
			script: "fail node 24 @400s; fail node 25 @405s; recover node 24 @410s; recover node 25 @415s"},
		{name: "fail link inside a node outage", stillDown: true,
			script: "fail node 24 @400s; fail link 24-25 @405s; recover node 24 @410s"},
		{name: "fail link inside a node outage, restored",
			script: "fail node 24 @400s; fail link 24-25 @405s; recover node 24 @410s; restore link 24-25 @420s"},
		{name: "churn victim adjacent to a failed node", churn: true,
			script: "churn links 24-25 rate=5/s down=1s @400s..401s; fail node 24 @400.5s; recover node 24 @430s"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenConfig(ProtoRIP)
			cfg.Scenario = tc.script
			tl := obs.NewTimeline()
			_, c, err := TraceObserved(cfg, 0, tl)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range c.Network().Links() {
				if want := l.Edge() != e || !tc.stillDown; l.Up() != want {
					t.Errorf("link %v up = %v at the end of the run, want %v", l.Edge(), l.Up(), want)
				}
			}
			if !tc.churn {
				return
			}
			// The churn failure lands before the node outage and its repair
			// inside it: the repair must not bring the link up under the
			// failed node, and the node's recovery must.
			var ups []time.Duration
			heldAtOutage := false
			for _, r := range tl.Records() {
				if topology.NewEdge(topology.NodeID(r.Node), topology.NodeID(r.Peer)) != e {
					continue
				}
				switch {
				case r.Kind == obs.KindLinkDown && r.At < 400500*time.Millisecond:
					heldAtOutage = true
				case r.Kind == obs.KindLinkUp:
					ups = append(ups, r.At)
				}
			}
			if !heldAtOutage {
				t.Fatal("churn did not fail 24-25 before the node outage; the script no longer exercises the case")
			}
			if len(ups) != 1 || ups[0] != 430*time.Second {
				t.Errorf("24-25 came up at %v, want once, at the node's recovery (430s)", ups)
			}
		})
	}
}

// TestScenarioLossConservation puts random loss on every mesh link and
// checks that lost data packets are accounted exactly once, in
// drops.random_loss, and that the identity still balances. Control packets
// are hit too (the obs counter control.dropped) but stay out of the data
// identity.
func TestScenarioLossConservation(t *testing.T) {
	cfg := goldenConfig(ProtoRIP)
	cfg.Metrics = true
	mesh, err := topology.NewMesh(cfg.Rows, cfg.Cols, cfg.Degree)
	if err != nil {
		t.Fatal(err)
	}
	b := scenario.NewBuilder()
	for _, e := range mesh.Graph.Edges() {
		b.Loss(time.Second, e.A, e.B, 0.05)
	}
	cfg.Script = b.Script()
	tr, _, err := TraceObserved(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics
	if m["drops.random_loss"] == 0 {
		t.Error("drops.random_loss = 0 — 5% loss on every link dropped no data packet")
	}
	if uint64(tr.RandomLossDrops) > m["drops.random_loss"] {
		t.Errorf("TrialResult.RandomLossDrops = %d > counter %d", tr.RandomLossDrops, m["drops.random_loss"])
	}
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["drops.random_loss"] +
		m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated: accounted %d, sent %d\nsnapshot: %v", accounted, m["packets.sent"], m)
	}
}

// TestScenarioShardedChurn extends the sharding determinism contract to the
// scenario engine's stochastic events: a continuous-churn script must
// reproduce the sequential trial bit-for-bit under Shards ∈ {2, 4}, because
// churn draws come from a private per-event stream and fire on the root
// simulator (at window barriers in sharded mode).
func TestScenarioShardedChurn(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoRIP, ProtoDBF} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			config := func() Config {
				cfg := goldenConfig(proto)
				cfg.Script = scenario.NewBuilder().
					Churn(400*time.Second, 440*time.Second, 0.2, 2*time.Second).
					Script()
				return cfg
			}
			ref, refC, err := Trace(config(), 0)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%+v", ref)
			for _, shards := range []int{2, 4} {
				cfg := config()
				cfg.Shards = shards
				tr, c, err := Trace(cfg, 0)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := fmt.Sprintf("%+v", tr); got != want {
					t.Errorf("shards=%d churn trial differs from sequential:\n seq:    %s\n shards: %s",
						shards, want, got)
				}
				// Same drop tolerance as TestShardedGoldenEquivalence: loop
				// races may shift a drop by a few link delays.
				if len(refC.Drops) != len(c.Drops) {
					t.Errorf("shards=%d: drop vectors differ (%d vs %d records)",
						shards, len(refC.Drops), len(c.Drops))
				} else {
					tol := 4 * netsim.DefaultConfig().LinkDelay
					for i := range refC.Drops {
						a, b := refC.Drops[i], c.Drops[i]
						dt := a.At - b.At
						if dt < 0 {
							dt = -dt
						}
						if a.Where != b.Where || a.Reason != b.Reason || a.Control != b.Control || dt > tol {
							t.Errorf("shards=%d: drop %d differs: seq %+v, sharded %+v", shards, i, a, b)
							break
						}
					}
				}
				if !reflect.DeepEqual(refC.PathHistory, c.PathHistory) {
					t.Errorf("shards=%d: path-sample streams differ", shards)
				}
			}
		})
	}
}

// TestValidateScenario pins the config-level script validation added with
// the engine (the original Validate cross-checked only FailAt, so a script
// could reference absent links or fire after the horizon without complaint).
func TestValidateScenario(t *testing.T) {
	base := func() Config { return goldenConfig(ProtoRIP) }
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"bad grammar", func(c *Config) { c.Scenario = "explode link 3-7 @400s" }, `unknown keyword "explode"`},
		{"text and script", func(c *Config) {
			c.Scenario = "failrandom @400s"
			c.Script = scenario.NewBuilder().FailRandom(400 * time.Second).Script()
		}, "mutually exclusive"},
		{"script with legacy knobs", func(c *Config) {
			c.Script = scenario.NewBuilder().FailRandom(400 * time.Second).Script()
			c.RestoreAfter = 3 * time.Second
		}, "legacy RestoreAfter/Flaps/ExtraFailAts"},
		{"past horizon", func(c *Config) {
			c.Script = scenario.NewBuilder().FailRandom(c.End + time.Second).Script()
		}, "not before"},
		{"absent link", func(c *Config) {
			// The 7×7 mesh has no 0–48 link (opposite corners).
			c.Script = scenario.NewBuilder().FailLink(400*time.Second, 0, 48).Script()
		}, "no link 0-48 in the topology"},
		{"restore before fail", func(c *Config) {
			c.Scenario = "restore link 0-1 @400s"
		}, "before any event fails it"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want substring %q", err, tc.want)
			}
		})
	}
	// A valid script passes, and ResolveScenario moves text into Script.
	cfg := base()
	cfg.Scenario = "fail link 0-1 @400s; restore link 0-1 @410s"
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid script rejected: %v", err)
	}
	if err := cfg.ResolveScenario(); err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario != "" || cfg.Script == nil || len(cfg.Script.Events) != 2 {
		t.Errorf("ResolveScenario left %q / %+v", cfg.Scenario, cfg.Script)
	}
}
