package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/trace"
)

// timelineScriptConfig is a BGP3 trial whose script raises every
// disturbance record the failpath goldens do not: a cost-out and cost-in,
// a lossy period, a node outage and a churn window.
func timelineScriptConfig() Config {
	cfg := goldenConfig(ProtoBGP3)
	cfg.Scenario = "costout link 24-25 @400s; costin link 24-25 @405s; " +
		"loss link 17-24 p=0.05 @406s; loss link 17-24 p=0 @415s; " +
		"fail node 24 @420s; recover node 24 @430s; " +
		"churn links rate=0.5/s down=2s @435s..450s"
	return cfg
}

// timelineHybridConfig is a hybrid trial with background fluid flows, so
// its timeline holds fluid demotion and re-absorption records.
func timelineHybridConfig() Config {
	cfg := goldenConfig(ProtoRIP)
	cfg.Flows = 32
	cfg.Mode = ModeHybrid
	return cfg
}

// TestTimelineNDJSONPinned pins the exact bytes of sequential timelines:
// the six goldens, a script raising every disturbance record, and a
// hybrid trial raising fluid records. Any change to which records are
// written, in which order, or how they are rendered shows up as a new
// digest. want lists the events each trial must contain, so the digest is
// known to cover them.
//
// Each trial also checks the convergence summary against the raw event
// stream, as a test observer between netsim and the recorder sees it:
// convergence_complete is FailAt + RoutingConvergence, and every node's
// fib_first_change and fib_last_change are its first and last raw route
// change at or after FailAt, found by a plain scan.
func TestTimelineNDJSONPinned(t *testing.T) {
	cases := []struct {
		name   string
		config func() Config
		want   []string
		sha    string
	}{
		{"rip", func() Config { return goldenConfig(ProtoRIP) }, nil, "8eda86eaa7b326847396c04e55a4908a13c801f554d3ec0428d1c0642155a2dd"},
		{"dbf", func() Config { return goldenConfig(ProtoDBF) }, nil, "fa4bd985dfa67334129807d8aa71cb7e0a9d325a61f0cedc87ec61393666c612"},
		{"bgp", func() Config { return goldenConfig(ProtoBGP) }, []string{"withdrawal"}, "e22842d32ce69efa170e0f9bbd96560e0cf16569d4e9e1206a0212c212e6f2e2"},
		{"bgp3", func() Config { return goldenConfig(ProtoBGP3) }, nil, "2d8675985e6e87c84a0ff1082d504abb59a0d92fe03e868f9a035fb514541e74"},
		{"ls", func() Config { return goldenConfig(ProtoLS) }, nil, "5a0f17d8457afbf00bc4ae510a14688c9c0b3e1e7a1099721f9a84a9a4802be3"},
		{"bgp3-damping", goldenDampingConfig, []string{"route_flap", "route_reuse"}, "0dfa79988fb30973b9f3ff189192615bb9b2c63ccda5ff15af13e2a7ac408b39"},
		{"script", timelineScriptConfig, []string{"cost_out", "cost_in", "link_loss", "node_down", "node_up", "churn_start", "churn_end"}, "737a6dd802c9c866d39d9b91ca325e70a459abac26aef00aa83b5c782e11179f"},
		{"hybrid", timelineHybridConfig, []string{"fluid_demote", "fluid_absorb"}, "0238150d249f32da3b73337179bd8afa988989189fe30e1eefc2889da0eb5f21"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.config()
			if err := cfg.resolve(); err != nil {
				t.Fatal(err)
			}
			tl := obs.NewTimeline()
			var tap *routeTap
			tr, _, err := runTrial(&cfg, 0, tl, false, func(o netsim.Observer) netsim.Observer {
				tap = &routeTap{Collector: o.(*trace.Collector)}
				return tap
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tl.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.Bytes()
			for _, ev := range append([]string{"trial_start", "link_down", "fib_change", "convergence_complete"}, tc.want...) {
				if !bytes.Contains(out, []byte(`"event":"`+ev+`"`)) {
					t.Errorf("timeline has no %s record", ev)
				}
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("NDJSON sha256 = %s, want %s (%d lines)", got, tc.sha, strings.Count(string(out), "\n"))
			}

			// The summary the recorder wrote, against the brute-force scan.
			first, last := map[int32]time.Duration{}, map[int32]time.Duration{}
			for _, rc := range tap.calls {
				if rc.at < cfg.FailAt {
					continue
				}
				if _, ok := first[rc.node]; !ok {
					first[rc.node] = rc.at
				}
				last[rc.node] = rc.at
			}
			var gotFirst, gotLast []obs.Record
			complete := 0
			for _, r := range *tl {
				switch r.Kind {
				case obs.KindFirstFIBChange:
					gotFirst = append(gotFirst, r)
				case obs.KindLastFIBChange:
					gotLast = append(gotLast, r)
				case obs.KindConvergenceComplete:
					complete++
					if want := cfg.FailAt + tr.RoutingConvergence; r.At != want {
						t.Errorf("convergence_complete at %v, want FailAt + RoutingConvergence = %v", r.At, want)
					}
				}
			}
			if complete != 1 {
				t.Errorf("%d convergence_complete records, want 1", complete)
			}
			if len(gotFirst) != len(first) || len(gotLast) != len(last) {
				t.Fatalf("%d fib_first_change and %d fib_last_change records; %d nodes changed at or after FailAt",
					len(gotFirst), len(gotLast), len(first))
			}
			for i := range gotFirst {
				f, l := gotFirst[i], gotLast[i]
				if i > 0 && f.Node <= gotFirst[i-1].Node {
					t.Errorf("fib_first_change records out of node order at %d: %d after %d", i, f.Node, gotFirst[i-1].Node)
				}
				if f.Node != l.Node || f.At != first[f.Node] || l.At != last[l.Node] {
					t.Errorf("node %d: first/last %v/%v recorded, raw stream says %v/%v (node %d)",
						f.Node, f.At, l.At, first[f.Node], last[f.Node], l.Node)
				}
			}
		})
	}
}

// routeTap sits between netsim and the trial recorder and keeps every raw
// RouteChanged call before passing it on.
type routeTap struct {
	*trace.Collector
	calls []struct {
		at   time.Duration
		node int32
	}
}

func (o *routeTap) RouteChanged(at time.Duration, node, dst, nextHop netsim.NodeID, removed bool) {
	o.calls = append(o.calls, struct {
		at   time.Duration
		node int32
	}{at, int32(node)})
	o.Collector.RouteChanged(at, node, dst, nextHop, removed)
}
