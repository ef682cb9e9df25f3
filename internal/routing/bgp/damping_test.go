package bgp

import (
	"math"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

func testDampingConfig() DampingConfig {
	return DampingConfig{
		WithdrawPenalty:   1000,
		ReannouncePenalty: 500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          60 * time.Second,
	}
}

func TestDamperPenaltyAccumulatesAndDecays(t *testing.T) {
	s := sim.New(1)
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) {})
	d.OnWithdraw(1, 9)
	if got := penalty(d, 1, 9); got != 1000 {
		t.Fatalf("penalty after one withdrawal = %v, want 1000", got)
	}
	// One half-life later the penalty halves.
	s.Schedule(60*time.Second, func() {})
	s.Run()
	if got := penalty(d, 1, 9); math.Abs(got-500) > 1 {
		t.Errorf("penalty after one half-life = %v, want ≈ 500", got)
	}
	if d.Suppressed(1, 9) {
		t.Error("route suppressed below threshold")
	}
}

func TestDamperSuppressesAtThreshold(t *testing.T) {
	s := sim.New(1)
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) {})
	d.OnWithdraw(1, 9)
	if d.Suppressed(1, 9) {
		t.Fatal("suppressed after a single withdrawal")
	}
	if !d.OnWithdraw(1, 9) {
		t.Fatal("not suppressed after two quick withdrawals (penalty ≈ 2000)")
	}
	if !d.Suppressed(1, 9) {
		t.Fatal("Suppressed() disagrees with OnWithdraw return")
	}
}

func TestDamperReuseCallback(t *testing.T) {
	s := sim.New(1)
	var reusedAt time.Duration = -1
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) {
		if n == 1 && dst == 9 {
			reusedAt = s.Now()
		}
	})
	d.OnWithdraw(1, 9)
	d.OnWithdraw(1, 9) // penalty 2000 → suppressed
	s.Run()
	if reusedAt < 0 {
		t.Fatal("reuse callback never fired")
	}
	// 2000 → 750 takes halfLife * log2(2000/750) ≈ 60s * 1.415 ≈ 84.9s.
	want := time.Duration(float64(60*time.Second) * math.Log2(2000.0/750.0))
	if diff := reusedAt - want; diff < -time.Second || diff > time.Second {
		t.Errorf("reuse at %v, want ≈ %v", reusedAt, want)
	}
	if d.Suppressed(1, 9) {
		t.Error("still suppressed after reuse")
	}
}

func TestDamperReannouncePenaltyLighter(t *testing.T) {
	s := sim.New(1)
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) {})
	d.OnReannounce(1, 9)
	d.OnReannounce(1, 9)
	d.OnReannounce(1, 9)
	if d.Suppressed(1, 9) {
		t.Error("suppressed at penalty 1500, threshold 2000")
	}
	d.OnReannounce(1, 9)
	if !d.Suppressed(1, 9) {
		t.Error("not suppressed at penalty 2000")
	}
}

func TestDamperSessionReset(t *testing.T) {
	s := sim.New(1)
	fired := false
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) { fired = true })
	d.OnWithdraw(1, 9)
	d.OnWithdraw(1, 9)
	d.SessionReset(1)
	if d.Suppressed(1, 9) {
		t.Error("suppression survived session reset")
	}
	s.Run()
	if fired {
		t.Error("reuse timer survived session reset")
	}
}

func TestDamperIndependentPerNeighborAndDest(t *testing.T) {
	s := sim.New(1)
	d := newDamper(testDampingConfig(), s, 3, 10, func(n int, dst netsim.NodeID) {})
	d.OnWithdraw(1, 9)
	d.OnWithdraw(1, 9)
	if d.Suppressed(2, 9) || d.Suppressed(1, 8) {
		t.Error("suppression leaked across neighbors or destinations")
	}
}

// TestFlapDampingEndToEnd drives a flapping route into a BGP speaker and
// checks the full cycle: usable → suppressed (despite being announced) →
// reusable after decay.
func TestFlapDampingEndToEnd(t *testing.T) {
	s := sim.New(1)
	g := topology.NewGraph(10) // idle nodes 2–9 put destination 9 in the network
	g.AddEdge(0, 1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	cfg := BGP3Config()
	dcfg := testDampingConfig()
	cfg.Damping = &dcfg
	p := New(net.Node(0), cfg)
	net.Node(0).AttachProtocol(p)
	net.Node(1).AttachProtocol(&capture{})
	net.Start()

	announce := func(at time.Duration) {
		s.ScheduleAt(at, func() {
			net.Node(1).SendControl(0, &Update{Dst: 9, Path: []netsim.NodeID{1, 9}})
		})
	}
	withdraw := func(at time.Duration) {
		s.ScheduleAt(at, func() {
			net.Node(1).SendControl(0, &Update{Withdrawn: []netsim.NodeID{9}})
		})
	}
	// Three fast withdrawal flaps: the penalty passes the 2000 threshold
	// on the third (decay makes two withdrawals land just short).
	announce(1 * time.Second)
	withdraw(2 * time.Second)
	announce(3 * time.Second)
	withdraw(4 * time.Second)
	announce(5 * time.Second)
	withdraw(6 * time.Second)
	announce(7 * time.Second)

	s.RunUntil(8 * time.Second)
	if _, ok := net.Node(0).NextHop(9); ok {
		t.Fatal("flapping route still usable; damping did not suppress it")
	}
	// The reuse timer un-suppresses it eventually; the stored announcement
	// becomes usable without any new message.
	s.RunUntil(10 * time.Minute)
	if nh, ok := net.Node(0).NextHop(9); !ok || nh != 1 {
		t.Fatalf("suppressed route never reused: nh=%d ok=%v", nh, ok)
	}
}

func TestDampingDisabledByDefault(t *testing.T) {
	if DefaultConfig().Damping != nil || BGP3Config().Damping != nil {
		t.Error("damping should be opt-in")
	}
	d := DefaultDampingConfig()
	if d.WithdrawPenalty != 1000 || d.SuppressThreshold != 2000 || d.ReuseThreshold != 750 {
		t.Errorf("RFC 2439 defaults wrong: %+v", d)
	}
}

// penalty returns the current (decayed) penalty of (rank, dst).
func penalty(d *damper, rank int, dst netsim.NodeID) float64 {
	st := d.peek(rank, dst)
	if st == nil {
		return 0
	}
	return d.decayed(st)
}
