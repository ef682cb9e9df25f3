package core

import (
	"testing"
	"time"

	"routeconv/internal/routing/bgp"
)

func TestRestoreAfterRepairsPath(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 2
	cfg.Scenario = "failpath @200s restore=20s"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the link repaired, the flow should end essentially lossless
	// late in the run.
	failBin := int((cfg.FailAt - cfg.SenderStart) / time.Second)
	late := res.MeanThroughput[failBin+60]
	if late < 19 {
		t.Errorf("throughput 60 s after a repaired failure = %.1f pps, want ≈ 20", late)
	}
	if res.DeliveryRatio < 0.98 {
		t.Errorf("delivery ratio with repair = %.3f", res.DeliveryRatio)
	}
}

func TestFlapsValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.Scenario = "failpath @200s flaps=3" // no restore
	if _, err := Run(cfg); err == nil {
		t.Error("flaps without restore accepted")
	}
	cfg.Scenario = "failpath @200s restore=-1s"
	if _, err := Run(cfg); err == nil {
		t.Error("negative restore accepted")
	}
}

func TestFlappingLinkRuns(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoBGP3
	cfg.Trials = 2
	cfg.Scenario = "failpath @200s restore=5s flaps=4"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveryRatio < 0.5 {
		t.Errorf("delivery ratio under flapping = %.3f, implausibly low", res.DeliveryRatio)
	}
	// Flapping must produce more transient paths than a single failure.
	single := cfg
	single.Scenario = ""
	sres, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTransientPath <= sres.MeanTransientPath {
		t.Errorf("flapping transient paths (%.1f) not above single failure (%.1f)",
			res.MeanTransientPath, sres.MeanTransientPath)
	}
}

// TestFlapDampingHurtsDelivery reproduces the Mao et al. [15] effect the
// paper's introduction cites: with route flap damping enabled, a flapping
// link gets its routes suppressed, and packet delivery during and after
// the flaps is worse than without damping.
func TestFlapDampingHurtsDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("two full experiments")
	}
	base := shortConfig()
	base.Protocol = ProtoBGP3
	base.Trials = 3
	base.Scenario = "failpath @200s restore=3s flaps=5"

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	damped := base
	dcfg := bgp.DefaultDampingConfig()
	dcfg.HalfLife = 60 * time.Second // scaled to the experiment length
	damped.BGP3.Damping = &dcfg
	dres, err := Run(damped)
	if err != nil {
		t.Fatal(err)
	}

	if dres.DeliveryRatio >= plain.DeliveryRatio {
		t.Errorf("damping should hurt delivery under flaps: damped %.4f vs plain %.4f",
			dres.DeliveryRatio, plain.DeliveryRatio)
	}
}

// TestFailureAlwaysRecoverable: even on the sparsest topology, the failed
// link never disconnects the flow — the experiment studies convergence to
// an existing alternate, not partition.
func TestFailureAlwaysRecoverable(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoLS // converges fastest; isolates the topology question
	cfg.Degree = 3
	cfg.Trials = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Trials {
		// Link-state reconverges within seconds, so near-total delivery
		// proves the post-failure topology still connected the flow.
		ratio := float64(tr.Delivered) / float64(tr.Sent)
		if ratio < 0.95 {
			t.Errorf("trial %d: delivery %.3f after failing %v — flow disconnected?",
				i, ratio, tr.FailedLink)
		}
	}
}

// TestFastRerouteEliminatesBlackhole: with loop-free alternates installed,
// even RIP — which blackholes for tens of seconds — loses almost nothing,
// because the data plane deflects before the control plane reacts.
func TestFastRerouteEliminatesBlackhole(t *testing.T) {
	base := shortConfig()
	base.Protocol = ProtoRIP
	base.Degree = 6 // dense enough that downhill alternates exist everywhere
	base.Trials = 3

	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	frr := base
	frr.FastReroute = true
	frrRes, err := Run(frr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MeanNoRouteDrops < 20 {
		t.Skipf("baseline RIP dropped only %.1f; nothing to protect", plain.MeanNoRouteDrops)
	}
	if frrRes.MeanNoRouteDrops+frrRes.MeanLinkDrops > plain.MeanNoRouteDrops/4 {
		t.Errorf("fast reroute drops = %.1f+%.1f, want far below plain RIP's %.1f",
			frrRes.MeanNoRouteDrops, frrRes.MeanLinkDrops, plain.MeanNoRouteDrops)
	}
}

func TestTrafficPatterns(t *testing.T) {
	for _, pattern := range []TrafficPattern{TrafficCBR, TrafficPoisson, TrafficOnOff} {
		pattern := pattern
		t.Run(pattern.String(), func(t *testing.T) {
			cfg := shortConfig()
			cfg.Protocol = ProtoDBF
			cfg.Trials = 1
			cfg.Traffic = pattern
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := res.Trials[0]
			if tr.Sent == 0 || tr.Delivered == 0 {
				t.Fatalf("pattern %v: sent=%d delivered=%d", pattern, tr.Sent, tr.Delivered)
			}
			want := int((cfg.End - cfg.SenderStart) / cfg.PacketInterval)
			switch pattern {
			case TrafficCBR:
				if tr.Sent != want {
					t.Errorf("CBR sent %d, want exactly %d", tr.Sent, want)
				}
			case TrafficPoisson:
				if tr.Sent < want/2 || tr.Sent > want*2 {
					t.Errorf("Poisson sent %d, want ≈ %d", tr.Sent, want)
				}
			case TrafficOnOff:
				if tr.Sent < want/5 || tr.Sent > want {
					t.Errorf("on/off sent %d, want ≈ %d (half duty cycle)", tr.Sent, want/2)
				}
			}
		})
	}
}

func TestTrafficValidation(t *testing.T) {
	cfg := shortConfig()
	cfg.Traffic = TrafficPattern(9)
	if _, err := Run(cfg); err == nil {
		t.Error("unknown traffic pattern accepted")
	}
	cfg = shortConfig()
	cfg.OnMean = -time.Second
	if _, err := Run(cfg); err == nil {
		t.Error("negative OnMean accepted")
	}
}

func TestDelayTailMeasured(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Trials = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		if tr.DelayP50 <= 0 || tr.DelayMax <= 0 {
			t.Errorf("delay tail not measured: %+v", tr.DelayP50)
		}
		if tr.DelayP50 > tr.DelayP95 || tr.DelayP95 > tr.DelayMax {
			t.Errorf("delay percentiles out of order: p50=%v p95=%v max=%v",
				tr.DelayP50, tr.DelayP95, tr.DelayMax)
		}
	}
	if res.MeanDelayP95 <= 0 || res.MeanDelayMax < res.MeanDelayP95 {
		t.Errorf("aggregated delay tail wrong: p95=%v max=%v", res.MeanDelayP95, res.MeanDelayMax)
	}
}
