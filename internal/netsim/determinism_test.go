package netsim

import (
	"fmt"
	"testing"
	"time"

	"routeconv/internal/obs"
)

// goldenScenario drives a fixed fail/restore scenario on a 4-node line with
// a CBR flow crossing the failed link, and returns the network's counters
// plus the total event count.
func goldenScenario() (obs.Metrics, uint64) {
	s, net := benchLine(4)
	StartCBR(net.Node(0), 3, 10*time.Millisecond, 1000, 64, 0, 8*time.Second)
	s.Schedule(2*time.Second, func() { net.FailLink(1, 2) })
	s.Schedule(4*time.Second, func() { net.RestoreLink(1, 2) })
	s.RunUntil(10 * time.Second)
	return *net.Metrics(), s.Fired()
}

// TestNetsimGolden pins the exact packet accounting and event count of the
// reference scenario. The values were captured from the pre-rewrite engine:
// 800 packets sent, the 200 sent during the 2 s outage all lost on the dead
// link (static routes — no reconvergence), and 5005 events fired in total.
// The whole counter set is pinned: 2200 forwarding decisions (three hops
// for each delivered packet, two for each lost one) and the three static
// routes installed. A change in event ordering or port scheduling shows up
// here immediately.
func TestNetsimGolden(t *testing.T) {
	want := obs.Snapshot{
		"packets.sent":       800,
		"packets.forwarded":  2200,
		"packets.delivered":  600,
		"drops.link_failure": 200,
		"fib.changes":        3,
	}
	m, fired := goldenScenario()
	if got, want := fmt.Sprint(m.Snapshot()), fmt.Sprint(want); got != want {
		t.Errorf("counters = %s, want %s", got, want)
	}
	if fired != 5005 {
		t.Errorf("fired = %d events, want 5005", fired)
	}
}

// TestNetsimRepeatable runs the scenario twice and requires byte-identical
// stats and event counts.
func TestNetsimRepeatable(t *testing.T) {
	st1, f1 := goldenScenario()
	st2, f2 := goldenScenario()
	if st1 != st2 {
		t.Errorf("stats differ between identical runs: %+v vs %+v", st1, st2)
	}
	if f1 != f2 {
		t.Errorf("event counts differ between identical runs: %d vs %d", f1, f2)
	}
}
