package core

import (
	"strings"
	"testing"

	"routeconv/internal/netsim"
)

func TestTraceMatchesRun(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 2
	runRes, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		tr, col, err := TraceObserved(cfg, trial, nil)
		if err != nil {
			t.Fatal(err)
		}
		if col == nil {
			t.Fatal("Trace returned nil collector")
		}
		want := runRes.Trials[trial]
		if tr.Seed != want.Seed || tr.NoRouteDrops != want.NoRouteDrops ||
			tr.Delivered != want.Delivered || tr.FailedLink != want.FailedLink ||
			tr.RoutingConvergence != want.RoutingConvergence {
			t.Errorf("TraceObserved(trial %d, nil) = %+v, differs from Run's %+v", trial, tr, want)
		}
		if len(col.Deliveries) != tr.Delivered {
			t.Errorf("collector deliveries = %d, trial says %d", len(col.Deliveries), tr.Delivered)
		}
		if col.Src == col.Dst {
			t.Error("collector flow endpoints identical")
		}
	}
}

func TestTraceValidation(t *testing.T) {
	cfg := shortConfig()
	if _, _, err := TraceObserved(cfg, -1, nil); err == nil {
		t.Error("negative trial accepted")
	}
	if _, _, err := TraceObserved(cfg, cfg.Trials, nil); err == nil {
		t.Error("out-of-range trial accepted")
	}
	cfg.TTL = 0
	if _, _, err := TraceObserved(cfg, 0, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestDefaultSweepShape checks the paper's evaluation grid on core's
// defaults: four protocols, and every protocol × degree 3–16 cell a valid
// configuration.
func TestDefaultSweepShape(t *testing.T) {
	if len(Protocols()) != 4 {
		t.Errorf("Protocols() = %v", Protocols())
	}
	for _, p := range Protocols() {
		for d := 3; d <= 16; d++ {
			cfg := DefaultConfig()
			cfg.Protocol, cfg.Degree = p, d
			if err := cfg.Validate(); err != nil {
				t.Errorf("%v degree %d: %v", p, d, err)
			}
		}
	}
}

func TestPathLinksHelper(t *testing.T) {
	if links := pathLinks(nil, false); links != nil {
		t.Errorf("pathLinks(nil) = %v", links)
	}
	if links := pathLinks([]NodeIDAlias{1}, true); links != nil {
		t.Errorf("single-node path links = %v", links)
	}
	links := pathLinks([]NodeIDAlias{1, 2, 3}, true)
	if len(links) != 2 {
		t.Fatalf("pathLinks = %v, want 2 links", links)
	}
}

// NodeIDAlias keeps the test readable without importing topology directly.
type NodeIDAlias = topologyNodeID

func TestCI95OfMetric(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ci := res.CI95Of(func(tr TrialResult) float64 { return float64(tr.Delivered) })
	if ci < 0 {
		t.Errorf("CI95Of = %v, want ≥ 0", ci)
	}
}

func TestTrafficPatternString(t *testing.T) {
	if TrafficCBR.String() != "cbr" || TrafficPoisson.String() != "poisson" || TrafficOnOff.String() != "onoff" {
		t.Error("traffic pattern names wrong")
	}
	if !strings.Contains(TrafficPattern(9).String(), "9") {
		t.Error("unknown pattern String()")
	}
}

// topologyNodeID mirrors the topology package's NodeID for the helper
// test above.
type topologyNodeID = netsim.NodeID
