package core

import (
	"fmt"
	"testing"
	"time"
)

// goldenScenarios are the six pinned reference configurations shared with
// determinism_test.go and obs_test.go.
func goldenScenarios() []struct {
	name   string
	config func() Config
} {
	return []struct {
		name   string
		config func() Config
	}{
		{"rip", func() Config { return goldenConfig(ProtoRIP) }},
		{"dbf", func() Config { return goldenConfig(ProtoDBF) }},
		{"bgp", func() Config { return goldenConfig(ProtoBGP) }},
		{"bgp3", func() Config { return goldenConfig(ProtoBGP3) }},
		{"ls", func() Config { return goldenConfig(ProtoLS) }},
		{"bgp3-damping", goldenDampingConfig},
	}
}

// TestTrafficModesExactSingleFlow pins the mode-equivalence contract at
// its strongest point: with a single flow the probe is packet-simulated in
// every mode, no FlowSet is attached, and fluid/hybrid results are
// bit-for-bit the packet-mode results on all six golden scenarios.
func TestTrafficModesExactSingleFlow(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref, _, err := TraceObserved(sc.config(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%+v", ref)
			for _, mode := range []TrafficMode{ModeFluid, ModeHybrid} {
				cfg := sc.config()
				cfg.Mode = mode
				tr, _, err := TraceObserved(cfg, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%+v", tr); got != want {
					t.Errorf("%v single-flow trial differs from packet mode:\n packet: %s\n %v: %s",
						mode, want, mode, got)
				}
			}
		})
	}
}

// TestHybridToleranceBackgroundFlows compares hybrid against pure-packet
// simulation with background flows on the six golden scenarios. Sent
// counts must agree exactly (same CBR ticks either way); delivery may
// differ because the fluid evaluator classifies whole inter-change
// intervals while the packet engine times every loss individually — the
// tolerance states how far the engines may drift on each scenario.
func TestHybridToleranceBackgroundFlows(t *testing.T) {
	// Allowed |delivered_packet − delivered_hybrid| as a fraction of sent.
	tolerance := map[string]float64{
		"rip":          0.05,
		"dbf":          0.05,
		"bgp":          0.05,
		"bgp3":         0.05,
		"ls":           0.05,
		"bgp3-damping": 0.20, // long suppression epochs amplify classification drift
	}
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			run := func(mode TrafficMode) TrialResult {
				cfg := sc.config()
				cfg.Flows = 4
				cfg.Mode = mode
				tr, _, err := TraceObserved(cfg, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			packet := run(ModePacket)
			hybrid := run(ModeHybrid)
			if packet.Sent != hybrid.Sent {
				t.Errorf("sent: packet %d, hybrid %d — CBR tick counts must agree exactly",
					packet.Sent, hybrid.Sent)
			}
			diff := packet.Delivered - hybrid.Delivered
			if diff < 0 {
				diff = -diff
			}
			tol := tolerance[sc.name]
			if float64(diff) > tol*float64(packet.Sent) {
				t.Errorf("delivered: packet %d, hybrid %d — |Δ| = %d exceeds %.0f%% of %d sent",
					packet.Delivered, hybrid.Delivered, diff, tol*100, packet.Sent)
			}
			t.Logf("sent %d/%d delivered %d/%d (Δ %d, %.2f%% of sent)",
				packet.Sent, hybrid.Sent, packet.Delivered, hybrid.Delivered,
				diff, 100*float64(diff)/float64(packet.Sent))
		})
	}
}

// TestHybridConservation runs a hybrid trial with many background flows
// and checks the packet-conservation identity over the combined
// packet+fluid accounting, plus that the fluid engine actually engaged
// (settles and demotions both non-zero).
func TestHybridConservation(t *testing.T) {
	cfg := goldenConfig(ProtoRIP)
	// 31 background flows: with seed 1 enough of them route through the
	// failure's reconvergence region to exercise the demotion machinery.
	cfg.Flows = 32
	cfg.Mode = ModeHybrid
	cfg.Metrics = true
	tr, _, err := TraceObserved(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics
	if m == nil {
		t.Fatal("Metrics enabled but TrialResult.Metrics is nil")
	}
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated: delivered+drops+in_flight = %d, sent = %d\nsnapshot: %v",
			accounted, m["packets.sent"], m)
	}
	if m["fluid.settles"] == 0 {
		t.Error("fluid.settles = 0, want > 0 — the fluid engine never ran")
	}
	if m["fluid.demotions"] == 0 || m["fluid.reabsorptions"] == 0 {
		t.Errorf("fluid.demotions = %d, fluid.reabsorptions = %d, want both > 0 — "+
			"the failure should push flows through the hybrid guard window",
			m["fluid.demotions"], m["fluid.reabsorptions"])
	}
	if m["fluid.delivered_bytes"] == 0 {
		t.Error("fluid.delivered_bytes = 0, want > 0")
	}
}

// TestFluidOnOffDutyCycle: the fluid engine runs an on/off background class
// as CBR at its long-run mean rate, the burst spacing stretched by the duty
// cycle (on+off)/on. A fluid trial of on/off flows must therefore account
// the bytes of a CBR trial whose interval is already stretched — with the
// one-second defaults (factor 2) and with explicit means (factor 4).
func TestFluidOnOffDutyCycle(t *testing.T) {
	fluidBytes := func(cfg Config) uint64 {
		cfg.Flows = 8
		cfg.Mode = ModeFluid
		cfg.Metrics = true
		tr, _, err := TraceObserved(cfg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Metrics["fluid.delivered_bytes"] + tr.Metrics["fluid.dropped_bytes"]
	}
	for _, tc := range []struct {
		on, off time.Duration
		factor  int64
	}{
		{0, 0, 2},
		{time.Second, 3 * time.Second, 4},
	} {
		onOff := goldenConfig(ProtoDBF)
		onOff.Traffic = TrafficOnOff
		onOff.OnMean, onOff.OffMean = tc.on, tc.off
		cbr := goldenConfig(ProtoDBF)
		cbr.PacketInterval *= time.Duration(tc.factor)
		// The probe flows differ (on/off vs CBR); the fluid classes' offered
		// load, delivered plus dropped, must not.
		if got, want := fluidBytes(onOff), fluidBytes(cbr); want == 0 || got != want {
			t.Errorf("on=%v off=%v: on/off fluid classes carried %d bytes, CBR at %d× the interval %d",
				tc.on, tc.off, got, tc.factor, want)
		}
	}
}
