package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/topology"
)

// shortConfig compresses the schedule for tests that do not involve the
// slow-MRAI BGP variant: protocols converge well within 200 s.
func shortConfig() Config {
	cfg := DefaultConfig()
	cfg.SenderStart = 190 * time.Second
	cfg.FailAt = 200 * time.Second
	cfg.End = 400 * time.Second
	cfg.Trials = 2
	return cfg
}

func TestValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Trials = 0 },
		func(c *Config) { c.Flows = 0 },
		func(c *Config) { c.Rows = 1 },
		func(c *Config) { c.SenderStart = c.FailAt + time.Second },
		func(c *Config) { c.End = c.FailAt },
		func(c *Config) { c.PacketInterval = 0 },
		func(c *Config) { c.TTL = 0 },
		func(c *Config) { c.Protocol = ProtocolKind(99) },
		func(c *Config) { c.Degree = 1 },
		func(c *Config) { c.Scenario = "failpath @400s; failrandom @801s" },
		func(c *Config) { c.Vector.MaxEntries = 0 },
		func(c *Config) { c.Vector.Infinity = 0 },
		func(c *Config) { c.Protocol, c.Vector.Infinity = ProtoRIP, math.MaxInt16+1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDegreeValidationSurfacesTopologyError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Degree = 99
	if err := cfg.Validate(); err == nil {
		// Degree errors surface from the mesh builder inside Run.
		if _, err := Run(cfg); err == nil {
			t.Error("degree 99 accepted")
		}
	}
}

// A node whose degree does not fit a 16-bit forwarding rank is a config
// error naming the node, reported by validation alone: the star is never
// simulated.
func TestValidateRejectsDegreeOverRankWidth(t *testing.T) {
	for _, leaves := range []int{netsim.MaxDegree, netsim.MaxDegree + 1} {
		g := topology.NewGraph(leaves + 1)
		for v := 1; v <= leaves; v++ {
			g.AddEdgeUnique(0, topology.NodeID(v))
		}
		cfg := DefaultConfig()
		cfg.Topology = g
		cfg.SenderRouters, cfg.ReceiverRouters = []netsim.NodeID{1}, []netsim.NodeID{2}
		err := cfg.Validate()
		if fits := leaves <= netsim.MaxDegree; fits != (err == nil) {
			t.Errorf("star with %d leaves: Validate = %v", leaves, err)
		}
		if err != nil && !strings.Contains(err.Error(), "node 0 ") {
			t.Errorf("star with %d leaves: error %q does not name node 0", leaves, err)
		}
	}
}

func TestProtocolKindStrings(t *testing.T) {
	for _, k := range []ProtocolKind{ProtoRIP, ProtoDBF, ProtoBGP, ProtoBGP3, ProtoLS} {
		parsed, err := ParseProtocol(k.String())
		if err != nil || parsed != k {
			t.Errorf("round trip %v → %q → %v, %v", k, k.String(), parsed, err)
		}
	}
	if _, err := ParseProtocol("nonesuch"); err == nil {
		t.Error("ParseProtocol accepted garbage")
	}
	if s := ProtocolKind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown kind String() = %q", s)
	}
}

func TestRunDBFBasics(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmedUpTrials != cfg.Trials {
		t.Errorf("warmed up %d/%d trials", res.WarmedUpTrials, cfg.Trials)
	}
	wantSent := int((cfg.End - cfg.SenderStart) / cfg.PacketInterval)
	for _, tr := range res.Trials {
		if tr.Sent != wantSent {
			t.Errorf("sent %d packets, want %d", tr.Sent, wantSent)
		}
		if tr.Delivered == 0 {
			t.Error("no packets delivered")
		}
		if tr.FailedLink.A == tr.FailedLink.B {
			t.Error("no link was failed")
		}
		if tr.RoutingConvergence <= 0 {
			t.Error("routing convergence not measured")
		}
	}
	if res.DeliveryRatio <= 0.9 {
		t.Errorf("delivery ratio = %.3f, want > 0.9 for DBF", res.DeliveryRatio)
	}
	if len(res.MeanThroughput) != int((cfg.End-cfg.SenderStart)/time.Second) {
		t.Errorf("throughput series length = %d", len(res.MeanThroughput))
	}
}

func TestThroughputDropsAtFailure(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoRIP
	cfg.Trials = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
	before := res.MeanThroughput[failBin-2]
	after := res.MeanThroughput[failBin+1]
	if before < 19 {
		t.Errorf("pre-failure throughput = %.1f pps, want ≈ 20", before)
	}
	if after > before/2 {
		t.Errorf("RIP throughput right after failure = %.1f pps, want a sharp drop from %.1f", after, before)
	}
	// Figure 5's RIP shape: recovery by roughly the periodic interval.
	late := res.MeanThroughput[failBin+45]
	if late < 15 {
		t.Errorf("RIP throughput 45 s after failure = %.1f pps, want recovered", late)
	}
}

// TestFigure1Scenario recreates the paper's §4 example: after a failure on
// the shortest path, packets still flow over a non-shortest path while the
// protocol converges (DBF's cached alternate).
func TestFigure1Scenario(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	// A 2×4 lattice, like the paper's Figure 1 topology: every link sits
	// on a cycle, so one failure never disconnects the flow.
	cfg.Rows, cfg.Cols, cfg.Degree = 2, 4, 4
	cfg.Trials = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Packets must keep flowing: the blackhole is at most the detection
	// window plus the damped triggered-update cascade.
	if res.DeliveryRatio < 0.95 {
		t.Errorf("delivery ratio = %.3f, want ≥ 0.95 (packets delivered during convergence)", res.DeliveryRatio)
	}
	// At least one trial must show a transient (non-final) forwarding path.
	transients := 0
	for _, tr := range res.Trials {
		transients += tr.TransientPaths
	}
	if transients == 0 {
		t.Error("no transient forwarding paths observed across trials")
	}
}

// TestHeadlineClaim checks the paper's §1 headline: with the same topology
// and packet rate, RIP drops hundreds of packets where BGP3 drops fewer
// than ~50.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol experiment")
	}
	base := DefaultConfig()
	base.Degree = 4
	base.Trials = 5

	rip := base
	rip.Protocol = ProtoRIP
	ripRes, err := Run(rip)
	if err != nil {
		t.Fatal(err)
	}
	bgp3 := base
	bgp3.Protocol = ProtoBGP3
	bgp3Res, err := Run(bgp3)
	if err != nil {
		t.Fatal(err)
	}
	if ripRes.MeanNoRouteDrops < 100 {
		t.Errorf("RIP mean drops = %.1f, want ≥ 100 (paper: ≈ 250)", ripRes.MeanNoRouteDrops)
	}
	if bgp3Res.MeanNoRouteDrops >= 50 {
		t.Errorf("BGP3 mean drops = %.1f, want < 50", bgp3Res.MeanNoRouteDrops)
	}
	if bgp3Res.MeanNoRouteDrops*3 > ripRes.MeanNoRouteDrops {
		t.Errorf("RIP (%.1f) should drop several times more than BGP3 (%.1f)",
			ripRes.MeanNoRouteDrops, bgp3Res.MeanNoRouteDrops)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.NoRouteDrops != tb.NoRouteDrops || ta.Delivered != tb.Delivered ||
			ta.RoutingConvergence != tb.RoutingConvergence || ta.FailedLink != tb.FailedLink {
			t.Fatalf("trial %d differs between identical runs:\n%+v\n%+v", i, ta, tb)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Trials {
		if a.Trials[i].FailedLink != b.Trials[i].FailedLink ||
			a.Trials[i].SenderRouter != b.Trials[i].SenderRouter {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical failure placements")
	}
}

func TestMultiFlow(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Flows = 3
	cfg.Trials = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSent := 3 * int((cfg.End-cfg.SenderStart)/cfg.PacketInterval)
	if res.Trials[0].Sent != wantSent {
		t.Errorf("sent %d packets with 3 flows, want %d", res.Trials[0].Sent, wantSent)
	}
	if res.DeliveryRatio < 0.9 {
		t.Errorf("multi-flow delivery ratio = %.3f", res.DeliveryRatio)
	}
}

func TestExtraFailures(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 1
	cfg.Scenario = "failpath @200s; failrandom @205s; failrandom @210s"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials[0].Delivered == 0 {
		t.Error("nothing delivered under multiple failures")
	}
}

func TestLinkStateProtocol(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoLS
	cfg.Trials = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmedUpTrials != cfg.Trials {
		t.Errorf("LS warmed up %d/%d trials", res.WarmedUpTrials, cfg.Trials)
	}
	// Link-state recomputes from the map at detection time: near-lossless.
	if res.DeliveryRatio < 0.99 {
		t.Errorf("LS delivery ratio = %.3f, want ≥ 0.99", res.DeliveryRatio)
	}
}

// sweepOf runs every (protocol, degree) cell of base with Run and
// assembles the figure renderer's input from the results.
func sweepOf(t *testing.T, base Config, protocols []ProtocolKind, degrees []int) *SweepResult {
	t.Helper()
	sr := &SweepResult{Base: base, Degrees: degrees, Protocols: protocols, Cells: map[ProtocolKind]map[int]*Result{}}
	for _, p := range protocols {
		sr.Cells[p] = map[int]*Result{}
		for _, d := range degrees {
			cfg := base
			cfg.Protocol, cfg.Degree = p, d
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sr.Cells[p][d] = res
		}
	}
	return sr
}

func TestSweepAndTables(t *testing.T) {
	base := shortConfig()
	base.Trials = 1
	sr := sweepOf(t, base, []ProtocolKind{ProtoDBF, ProtoBGP3}, []int{4, 6})
	var sb strings.Builder
	if err := sr.Figure3Table().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"degree", "dbf_drops", "bgp3_drops"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 3 table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "4") || !strings.Contains(out, "6") {
		t.Error("figure 3 table missing degree rows")
	}

	sb.Reset()
	if err := sr.Figure5Table(4).WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	nBins, _ := sr.seriesWindow()
	if len(lines) != nBins+1 {
		t.Errorf("figure 5 CSV has %d lines, want %d", len(lines), nBins+1)
	}

	for _, tab := range []*struct {
		name string
		fn   func() error
	}{
		{"fig4", func() error { sb.Reset(); return sr.Figure4Table().WriteText(&sb) }},
		{"fig6a", func() error { sb.Reset(); return sr.Figure6aTable().WriteText(&sb) }},
		{"fig6b", func() error { sb.Reset(); return sr.Figure6bTable().WriteText(&sb) }},
		{"fig7", func() error { sb.Reset(); return sr.Figure7Table(6).WriteText(&sb) }},
		{"summary", func() error { sb.Reset(); return sr.SummaryTable().WriteText(&sb) }},
	} {
		if err := tab.fn(); err != nil {
			t.Errorf("%s: %v", tab.name, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s rendered empty", tab.name)
		}
	}
}

func TestCustomFactoryOverride(t *testing.T) {
	cfg := shortConfig()
	cfg.Trials = 1
	called := 0
	base := cfg
	base.Protocol = ProtoDBF
	factory, err := base.factory()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Factory = func(n *netsim.Node) netsim.Protocol { called++; return factory(n) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if called == 0 {
		t.Error("custom factory never invoked")
	}
	if res.DeliveryRatio < 0.9 {
		t.Errorf("delivery ratio with custom factory = %.3f", res.DeliveryRatio)
	}
}
