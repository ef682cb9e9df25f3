package obs

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestCounterNamesComplete(t *testing.T) {
	for c := Counter(0); c < numCounters; c++ {
		if counterNames[c] == "" {
			t.Errorf("counter %d has no name", c)
		}
	}
	seen := map[string]Counter{}
	for c := Counter(0); c < numCounters; c++ {
		if prev, dup := seen[counterNames[c]]; dup {
			t.Errorf("counters %d and %d share name %q", prev, c, counterNames[c])
		}
		seen[counterNames[c]] = c
	}
}

func TestMetricsBasics(t *testing.T) {
	m := NewMetrics()
	m.Inc(PacketsSent)
	m.Inc(PacketsSent)
	m.Add(ControlBytes, 120)
	m.Set(EventsFired, 42)
	if got := m.Get(PacketsSent); got != 2 {
		t.Errorf("PacketsSent = %d, want 2", got)
	}
	m.Inc(DropNoRoute)
	m.ObserveQueueDepth(1)
	m.ObserveQueueDepth(3)
	m.ObserveQueueDepth(19)

	s := m.Snapshot()
	want := map[string]uint64{
		"packets.sent":          2,
		"drops.no_route":        1,
		"control.bytes":         120,
		"events.fired":          42,
		"packets.in_flight_end": 1,
		"queue.peak":            19,
		"queue.depth.le1":       1,
		"queue.depth.le4":       1,
		"queue.depth.gt16":      1,
	}
	if len(s) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(s), len(want), s)
	}
	for k, v := range want {
		if s[k] != v {
			t.Errorf("snapshot[%q] = %d, want %d", k, s[k], v)
		}
	}
}

// TestInFlightEndClamped checks that a ledger with more terminal fates
// than sends — an accounting bug — exports no negative in-flight balance.
func TestInFlightEndClamped(t *testing.T) {
	m := NewMetrics()
	m.Inc(PacketsSent)
	m.Inc(PacketsDelivered)
	m.Inc(DropTTLExpired)
	if v, ok := m.Snapshot()["packets.in_flight_end"]; ok {
		t.Errorf("packets.in_flight_end = %d, want absent", v)
	}
}

func TestSnapshotMerge(t *testing.T) {
	var total Snapshot
	total = total.Merge(Snapshot{"packets.sent": 3, "drops.no_route": 1})
	total = total.Merge(Snapshot{"packets.sent": 2})
	total = total.Merge(nil)
	if total["packets.sent"] != 5 || total["drops.no_route"] != 1 {
		t.Errorf("merged snapshot = %v", total)
	}
	if len(total) != 2 {
		t.Errorf("merged snapshot has %d keys, want 2: %v", len(total), total)
	}
}

// TestTimelineNDJSON pins the NDJSON schema of OBSERVABILITY.md: one record
// of every Kind renders as exactly its documented line, with the event name
// Kind.String gives.
func TestTimelineNDJSON(t *testing.T) {
	const s = time.Second
	cases := []struct {
		r    Record
		line string
	}{
		{Record{At: 0, Kind: KindTrialStart, Node: -1, Peer: -1, Dst: -1, Seed: 7},
			`{"t_ns":0,"event":"trial_start","seed":7}`},
		{Record{At: 10 * s, Kind: KindLinkDown, Node: 24, Peer: 25, Dst: -1},
			`{"t_ns":10000000000,"event":"link_down","node":24,"peer":25}`},
		{Record{At: 10*s + 50*time.Millisecond, Kind: KindLinkDownDetected, Node: 24, Peer: 25, Dst: -1},
			`{"t_ns":10050000000,"event":"link_down_detected","node":24,"peer":25}`},
		{Record{At: 10*s + 52*time.Millisecond, Kind: KindFIBChange, Node: 24, Peer: 17, Dst: 48},
			`{"t_ns":10052000000,"event":"fib_change","node":24,"dst":48,"next_hop":17}`},
		{Record{At: 10*s + 60*time.Millisecond, Kind: KindFIBRemove, Node: 25, Peer: -1, Dst: 48},
			`{"t_ns":10060000000,"event":"fib_remove","node":25,"dst":48}`},
		{Record{At: 10*s + 100*time.Millisecond, Kind: KindWithdrawal, Node: 25, Peer: 24, Dst: 48},
			`{"t_ns":10100000000,"event":"withdrawal","node":25,"neighbor":24,"dst":48}`},
		{Record{At: 11 * s, Kind: KindRouteFlap, Node: 5, Peer: 9, Dst: 48},
			`{"t_ns":11000000000,"event":"route_flap","node":5,"neighbor":9,"dst":48,"state":"suppressed"}`},
		{Record{At: 12 * s, Kind: KindRouteReuse, Node: 5, Peer: 9, Dst: 48},
			`{"t_ns":12000000000,"event":"route_reuse","node":5,"neighbor":9,"dst":48,"state":"reused"}`},
		{Record{At: 12 * s, Kind: KindFluidDemote, Node: 3, Peer: -1, Dst: 45},
			`{"t_ns":12000000000,"event":"fluid_demote","node":3,"dst":45}`},
		{Record{At: 13 * s, Kind: KindFluidAbsorb, Node: 3, Peer: -1, Dst: 45},
			`{"t_ns":13000000000,"event":"fluid_absorb","node":3,"dst":45}`},
		{Record{At: 14 * s, Kind: KindLinkLoss, Node: 17, Peer: 24, Dst: -1, Rate: 0.05},
			`{"t_ns":14000000000,"event":"link_loss","node":17,"peer":24,"rate":0.05}`},
		{Record{At: 15 * s, Kind: KindLinkLoss, Node: 17, Peer: 24, Dst: -1},
			`{"t_ns":15000000000,"event":"link_loss","node":17,"peer":24,"rate":0}`},
		{Record{At: 16 * s, Kind: KindCostOut, Node: 3, Peer: 4, Dst: -1},
			`{"t_ns":16000000000,"event":"cost_out","node":3,"peer":4}`},
		{Record{At: 17 * s, Kind: KindCostIn, Node: 3, Peer: 4, Dst: -1},
			`{"t_ns":17000000000,"event":"cost_in","node":3,"peer":4}`},
		{Record{At: 18 * s, Kind: KindNodeDown, Node: 12, Peer: -1, Dst: -1},
			`{"t_ns":18000000000,"event":"node_down","node":12}`},
		{Record{At: 19 * s, Kind: KindNodeUp, Node: 12, Peer: -1, Dst: -1},
			`{"t_ns":19000000000,"event":"node_up","node":12}`},
		{Record{At: 19 * s, Kind: KindLinkUp, Node: 12, Peer: 13, Dst: -1},
			`{"t_ns":19000000000,"event":"link_up","node":12,"peer":13}`},
		{Record{At: 19*s + 50*time.Millisecond, Kind: KindLinkUpDetected, Node: 12, Peer: 13, Dst: -1},
			`{"t_ns":19050000000,"event":"link_up_detected","node":12,"peer":13}`},
		{Record{At: 20 * s, Kind: KindChurnStart, Node: -1, Peer: -1, Dst: -1, Rate: 0.5},
			`{"t_ns":20000000000,"event":"churn_start","rate":0.5}`},
		{Record{At: 30 * s, Kind: KindChurnEnd, Node: -1, Peer: -1, Dst: -1, Rate: 0.5},
			`{"t_ns":30000000000,"event":"churn_end"}`},
		{Record{At: 10*s + 52*time.Millisecond, Kind: KindFirstFIBChange, Node: 24, Peer: -1, Dst: -1},
			`{"t_ns":10052000000,"event":"fib_first_change","node":24}`},
		{Record{At: 10*s + 52*time.Millisecond, Kind: KindLastFIBChange, Node: 24, Peer: -1, Dst: -1},
			`{"t_ns":10052000000,"event":"fib_last_change","node":24}`},
		{Record{At: 10*s + 60*time.Millisecond, Kind: KindConvergenceComplete, Node: -1, Peer: -1, Dst: -1},
			`{"t_ns":10060000000,"event":"convergence_complete"}`},
	}
	var tl Timeline
	var want strings.Builder
	seen := make(map[Kind]bool)
	for _, c := range cases {
		tl.Append(c.r)
		want.WriteString(c.line + "\n")
		seen[c.r.Kind] = true
		if ev := `"event":"` + c.r.Kind.String() + `"`; !strings.Contains(c.line, ev) {
			t.Errorf("Kind %d String() = %q, want the event of %s", c.r.Kind, c.r.Kind.String(), c.line)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Errorf("no NDJSON case for kind %d (%s)", k, k)
		}
	}
	var sb strings.Builder
	if err := tl.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want.String() {
		t.Errorf("NDJSON output:\n%s\nwant:\n%s", got, want.String())
	}
}

func TestNilTimelineSafe(t *testing.T) {
	var tl *Timeline
	if tl.Len() != 0 {
		t.Error("nil Timeline has records")
	}
	if err := tl.WriteNDJSON(nil); err != nil {
		t.Errorf("nil Timeline WriteNDJSON: %v", err)
	}
}

// TestMetricsOpsAllocFree pins every hot-path recording method at zero
// allocations; the data plane calls these per packet.
func TestMetricsOpsAllocFree(t *testing.T) {
	m := NewMetrics()
	allocs := testing.AllocsPerRun(1000, func() {
		m.Inc(PacketsForwarded)
		m.Add(ControlBytes, 64)
		m.ObserveQueueDepth(3)
		_ = m.Get(PacketsForwarded)
	})
	if allocs != 0 {
		t.Errorf("metrics ops: %v allocs/run, want 0", allocs)
	}
}

// TestNilTimelineAllocFree pins an absent timeline at zero allocations:
// a caller that attached none still asks for its length and export.
func TestNilTimelineAllocFree(t *testing.T) {
	var tl *Timeline
	allocs := testing.AllocsPerRun(1000, func() {
		_ = tl.Len()
		_ = tl.WriteNDJSON(io.Discard)
	})
	if allocs != 0 {
		t.Errorf("nil timeline ops: %v allocs/run, want 0", allocs)
	}
}
