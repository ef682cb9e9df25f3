package netsim

import (
	"testing"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func trafficNet(t *testing.T) (*sim.Simulator, *Network) {
	t.Helper()
	s := sim.New(5)
	n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
	n.Node(0).SetRoute(1, 1)
	return s, n
}

func TestPoissonRate(t *testing.T) {
	s, n := trafficNet(t)
	// Mean 10 ms over 100 s → about 10k packets.
	StartPoisson(n.Node(0), 1, 10*time.Millisecond, 100, 64, 0, 100*time.Second)
	s.Run()
	sent := float64(n.Metrics().Get(obs.PacketsSent))
	if sent < 8_000 || sent > 12_000 {
		t.Errorf("Poisson sent %v packets over 100 s at 100 pps mean, want ≈ 10000", sent)
	}
}

func TestPoissonStopsAtDeadline(t *testing.T) {
	s, n := trafficNet(t)
	StartPoisson(n.Node(0), 1, 10*time.Millisecond, 100, 64, time.Second, 2*time.Second)
	s.Run()
	if s.Now() > 3*time.Second {
		t.Errorf("events continued until %v after the source deadline", s.Now())
	}
	if n.Metrics().Get(obs.PacketsSent) == 0 {
		t.Error("Poisson sent nothing")
	}
}

func TestPoissonStop(t *testing.T) {
	s, n := trafficNet(t)
	StartPoisson(n.Node(0), 1, 10*time.Millisecond, 100, 64, 0, time.Second)
	s.RunUntil(2 * time.Second)
	sent := n.Metrics().Get(obs.PacketsSent)
	s.RunUntil(10 * time.Second)
	if n.Metrics().Get(obs.PacketsSent) != sent {
		t.Error("packets sent after the stop time")
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events pending after the stop time", got)
	}
}

func TestOnOffBursts(t *testing.T) {
	s, n := trafficNet(t)
	// 1 s ON / 1 s OFF at 100 pps → roughly half of 100 s × 100 pps.
	StartOnOff(n.Node(0), 1, 10*time.Millisecond, time.Second, time.Second, 100, 64, 0, 100*time.Second)
	s.Run()
	sent := float64(n.Metrics().Get(obs.PacketsSent))
	if sent < 3_000 || sent > 7_000 {
		t.Errorf("on/off sent %v packets, want ≈ 5000 (half duty cycle)", sent)
	}
}

func TestOnOffStop(t *testing.T) {
	s, n := trafficNet(t)
	StartOnOff(n.Node(0), 1, 10*time.Millisecond, time.Second, time.Second, 100, 64, 0, 500*time.Millisecond)
	s.RunUntil(time.Second)
	sent := n.Metrics().Get(obs.PacketsSent)
	if sent == 0 {
		t.Fatal("on/off sent nothing before its stop time")
	}
	s.RunUntil(5 * time.Second)
	if n.Metrics().Get(obs.PacketsSent) != sent {
		t.Error("packets sent after the stop time")
	}
	if got := s.Pending(); got != 0 {
		t.Errorf("%d events pending after the stop time", got)
	}
}

func TestTrafficValidation(t *testing.T) {
	_, n := trafficNet(t)
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("Poisson zero interval", func() {
		StartPoisson(n.Node(0), 1, 0, 100, 64, 0, time.Second)
	})
	assertPanics("OnOff zero interval", func() {
		StartOnOff(n.Node(0), 1, 0, time.Second, time.Second, 100, 64, 0, time.Second)
	})
	assertPanics("OnOff zero on-mean", func() {
		StartOnOff(n.Node(0), 1, time.Millisecond, 0, time.Second, 100, 64, 0, time.Second)
	})
	assertPanics("CBR zero interval", func() {
		StartCBR(n.Node(0), 1, 0, 100, 64, 0, time.Second)
	})
}

// TestTrafficNoEventPastDeadline pins the stopAt boundary fix: sources
// must not leave a dead event scheduled at or beyond their deadline, so
// the simulator drains exactly when traffic ends.
func TestTrafficNoEventPastDeadline(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := sim.New(seed)
		n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
		n.Node(0).SetRoute(1, 1)
		const stop = 2 * time.Second
		StartPoisson(n.Node(0), 1, 10*time.Millisecond, 100, 64, time.Second, stop)
		StartOnOff(n.Node(0), 1, 10*time.Millisecond, 100*time.Millisecond, 100*time.Millisecond, 100, 64, time.Second, stop)
		s.Run()
		// Deliveries of packets sent just before the deadline trail it by
		// one hop's latency; anything later is a source tick that the
		// boundary clamp should have suppressed.
		if slack := 2 * time.Millisecond; s.Now() >= stop+slack {
			t.Fatalf("seed %d: an event fired at %v, past the %v source deadline", seed, s.Now(), stop)
		}
		if got := s.Pending(); got != 0 {
			t.Fatalf("seed %d: %d events still pending after Run", seed, got)
		}
	}
}

func TestTrafficDeterministic(t *testing.T) {
	run := func() uint64 {
		s := sim.New(9)
		n := FromGraph(s, topology.Line(2), DefaultConfig(), nil)
		n.Node(0).SetRoute(1, 1)
		StartPoisson(n.Node(0), 1, 5*time.Millisecond, 100, 64, 0, 10*time.Second)
		StartOnOff(n.Node(1), 0, 7*time.Millisecond, time.Second, 500*time.Millisecond, 100, 64, 0, 10*time.Second)
		s.Run()
		return n.Metrics().Get(obs.PacketsSent)
	}
	if run() != run() {
		t.Error("traffic sources not deterministic under a fixed seed")
	}
}
