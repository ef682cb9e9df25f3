package core

import (
	"testing"
	"time"
)

// These tests check the paper's numbered observations end to end at
// reduced trial counts. They are statistical claims, so thresholds are
// generous; the full-figure reproduction is cmd/sweep -figures.

// Observation 2 (§5.2): BGP has the largest number of TTL expirations at
// degree 5; RIP is loop-free by blackholing; BGP expires roughly an order
// of magnitude more than BGP3 (the MRAI ratio).
func TestObservation2TransientLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol experiment")
	}
	run := func(p ProtocolKind) *Result {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Degree = 5
		cfg.Trials = 6
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bgp := run(ProtoBGP)
	bgp3 := run(ProtoBGP3)
	if bgp.MeanTTLDrops < 2*bgp3.MeanTTLDrops {
		t.Errorf("BGP TTL expirations (%.1f) should far exceed BGP3's (%.1f)",
			bgp.MeanTTLDrops, bgp3.MeanTTLDrops)
	}
	if bgp.MeanTTLDrops < 10 {
		t.Errorf("BGP TTL expirations at degree 5 = %.1f, expected substantial looping", bgp.MeanTTLDrops)
	}
}

// Observation 2's degree-6 clause: no TTL expirations at degree ≥ 6 for
// the alternate-path protocols.
func TestObservation2NoLoopsAtDegreeSix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol experiment")
	}
	for _, p := range []ProtocolKind{ProtoDBF, ProtoBGP3} {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Degree = 6
		cfg.Trials = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanTTLDrops > 1 {
			t.Errorf("%v TTL expirations at degree 6 = %.1f, want ≈ 0", p, res.MeanTTLDrops)
		}
	}
}

// Observation 3 (§5.3): DBF's throughput recovery completes within the
// triggered-update damping bound, far faster than RIP's periodic cycle.
func TestObservation3RecoveryTimescales(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol experiment")
	}
	recovery := func(p ProtocolKind) int {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Degree = 4
		cfg.Trials = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
		for bin := failBin + 1; bin < len(res.MeanThroughput); bin++ {
			if res.MeanThroughput[bin] >= 18 {
				return bin - failBin
			}
		}
		return len(res.MeanThroughput) - failBin
	}
	dbf := recovery(ProtoDBF)
	rip := recovery(ProtoRIP)
	if dbf > 15 {
		t.Errorf("DBF recovery = %d s, want within the damped cascade (≈ ≤ 15 s)", dbf)
	}
	if rip <= dbf {
		t.Errorf("RIP recovery (%d s) should be slower than DBF's (%d s)", rip, dbf)
	}
	if rip < 10 || rip > 60 {
		t.Errorf("RIP recovery = %d s, want on the order of the 30 s periodic cycle", rip)
	}
}

// Observation 4 (§5.4): BGP3 converges much faster than BGP even where
// both deliver essentially everything (degree 6).
func TestObservation4ConvergenceVsDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-protocol experiment")
	}
	run := func(p ProtocolKind) *Result {
		cfg := DefaultConfig()
		cfg.Protocol = p
		cfg.Degree = 6
		cfg.Trials = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bgp := run(ProtoBGP)
	bgp3 := run(ProtoBGP3)
	if bgp3.MeanRoutingConv >= bgp.MeanRoutingConv {
		t.Errorf("BGP3 routing convergence (%.1fs) should beat BGP's (%.1fs)",
			bgp3.MeanRoutingConv, bgp.MeanRoutingConv)
	}
	// ... yet the drop difference is negligible: both lose almost nothing.
	if bgp.MeanNoRouteDrops > 5 || bgp3.MeanNoRouteDrops > 5 {
		t.Errorf("degree-6 drops should be negligible: bgp=%.1f bgp3=%.1f",
			bgp.MeanNoRouteDrops, bgp3.MeanNoRouteDrops)
	}
}

// Observation 5 (§5.5): packets delivered during convergence experience
// extra delay; with hop recording on, loop-escaping packets are observed
// where looping occurs.
func TestObservation5LoopEscapeDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length experiment")
	}
	cfg := DefaultConfig()
	cfg.Protocol = ProtoBGP3
	cfg.Degree = 5
	cfg.Trials = 6
	cfg.Net.RecordHops = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanLoopEscapes == 0 && res.MeanTTLDrops == 0 {
		t.Skip("no looping occurred at these seeds; nothing to assert")
	}
	// Escaped packets inflate the delay tail well beyond the steady ≈20 ms.
	if res.MeanLoopEscapes > 0 && res.MeanDelayMax < 0.03 {
		t.Errorf("loop escapes observed (%.1f) but max delay %.4fs barely above steady state",
			res.MeanLoopEscapes, res.MeanDelayMax)
	}
}
