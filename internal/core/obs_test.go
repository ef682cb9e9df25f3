package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMetricsConservation checks, per golden protocol scenario, that the
// obs counters account for every injected packet exactly once:
//
//	delivered + drops (all five causes) + in-flight-at-end == sent
//
// and that the drop counters mirror the drops the trace.Collector saw
// independently. A failure means a forwarding path increments the wrong
// counter (or none, or two) for some packet fate.
func TestMetricsConservation(t *testing.T) {
	cases := []struct {
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
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config()
			cfg.Metrics = true
			tr, _, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := tr.Metrics
			if m == nil {
				t.Fatal("Metrics enabled but TrialResult.Metrics is nil")
			}

			// Drop counters must mirror the collector's own accounting.
			mirror := []struct {
				key  string
				want int
			}{
				{"drops.no_route", tr.NoRouteDrops},
				{"drops.ttl_expired", tr.TTLDrops},
				{"drops.link_failure", tr.LinkFailureDrops},
				{"drops.queue_overflow", tr.QueueDrops},
				{"drops.random_loss", tr.RandomLossDrops},
			}
			for _, mm := range mirror {
				if got := m[mm.key]; got != uint64(mm.want) {
					t.Errorf("%s = %d, want %d (trace.Collector)", mm.key, got, mm.want)
				}
			}

			// Conservation: every sent packet has exactly one fate.
			accounted := m["packets.delivered"] + m["drops.no_route"] +
				m["drops.ttl_expired"] + m["drops.queue_overflow"] +
				m["drops.link_failure"] + m["drops.random_loss"] +
				m["packets.in_flight_end"]
			if accounted != m["packets.sent"] {
				t.Errorf("conservation violated: delivered+drops+in_flight = %d, sent = %d\nsnapshot: %v",
					accounted, m["packets.sent"], m)
			}

			// Sanity: a convergence experiment exercises the control plane.
			for _, key := range []string{"control.sent", "control.received", "fib.changes", "events.fired"} {
				if m[key] == 0 {
					t.Errorf("%s = 0, want > 0", key)
				}
			}
		})
	}
}

// TestMetricsOffByDefault checks that with Config.Metrics unset no snapshot
// is attached: the counters always run, and the flag only exports them.
func TestMetricsOffByDefault(t *testing.T) {
	tr, _, err := TraceObserved(goldenConfig(ProtoDBF), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics != nil {
		t.Fatalf("Metrics disabled but TrialResult.Metrics = %v", tr.Metrics)
	}
}

// TestMetricsSnapshotPinned pins every counter of the TrialResult.Metrics
// snapshot, as the SHA-256 of its sorted name=value lines: the six goldens,
// a 2-shard rip golden (per-shard sets folded at the end), the 32-flow
// hybrid RIP trial (fluid settlements, demotions and re-absorptions), and
// an overloaded DBF trial whose queues overflow and still hold packets at
// the end (packets.in_flight_end, queue.*). A fate that is counted in a
// new place, twice, or not at all shows up as a new digest.
func TestMetricsSnapshotPinned(t *testing.T) {
	cases := []struct {
		name   string
		config func() Config
		sha    string
	}{
		{"rip", func() Config { return goldenConfig(ProtoRIP) }, "ecbdb9302635b565fd56bf9125922e013942923444651e8298969460740fce83"},
		{"dbf", func() Config { return goldenConfig(ProtoDBF) }, "da4fd5884ba306f5045d216902eb52812ede8f5f5f533c9adb467d296f0ab251"},
		{"bgp", func() Config { return goldenConfig(ProtoBGP) }, "f1bdc95fc7b69f9fac87b95f07ecf0ecd06068d59a9bbbdd66d33f1f8b5a7844"},
		{"bgp3", func() Config { return goldenConfig(ProtoBGP3) }, "af029354600e062e939e60f57018614d0a852ae553135df5555ee5a005ec6ef8"},
		{"ls", func() Config { return goldenConfig(ProtoLS) }, "03690ff0939bd37bbb2bb391ed4904461d10173b0bd7a6e3401ce0e6744116ee"},
		{"bgp3-damping", goldenDampingConfig, "983b6ad5840309886263736b9c9fd8e59087244a282751a0f4bd07a6eea23c11"},
		{"rip-shards2", func() Config {
			cfg := goldenConfig(ProtoRIP)
			cfg.Shards = 2
			return cfg
		}, "ae3680ba269a377d35b422fd575f75d6751c25a23ae49703f6e1e4ea38688432"},
		{"hybrid", timelineHybridConfig, "1070227eb31f12135d04b5ac9a5405e9cc642d5cdfec5e5faf2706b06325afc1"},
		{"overload", func() Config {
			cfg := goldenConfig(ProtoDBF)
			cfg.Flows = 40
			cfg.PacketInterval = 5 * time.Millisecond
			cfg.End = cfg.FailAt + 5*time.Second
			return cfg
		}, "a3e5ab38bf679dc34045eab35dcbd0484a394d97c56c497dcf6413340918407c"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.config()
			cfg.Metrics = true
			tr, _, err := TraceObserved(cfg, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			keys := make([]string, 0, len(tr.Metrics))
			for k := range tr.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, "%s=%d\n", k, tr.Metrics[k])
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("snapshot sha256 = %s, want %s\n%s", got, tc.sha, b.String())
			}
		})
	}
}
