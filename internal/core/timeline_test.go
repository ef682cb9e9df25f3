package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"routeconv/internal/obs"
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
func TestTimelineNDJSONPinned(t *testing.T) {
	cases := []struct {
		name   string
		config func() Config
		want   []string
		sha    string
	}{
		{"rip", func() Config { return goldenConfig(ProtoRIP) }, nil, "9c791ecd9590b6555dbaa85ef15e45570e4af5c5d743c20bc2f80cd476a0e216"},
		{"dbf", func() Config { return goldenConfig(ProtoDBF) }, nil, "f3ceb92a6d4c654b852b922d1c9f0b0a39a8d7c8715b7a216efbbb3ab0499cf8"},
		{"bgp", func() Config { return goldenConfig(ProtoBGP) }, []string{"withdrawal"}, "ee9e67f2c139feb163c2beacac182d4edfa16cf53c7f282ba42f4fb0d690abf4"},
		{"bgp3", func() Config { return goldenConfig(ProtoBGP3) }, nil, "d24d858c6769eb639cbefb7e36716971ed9e9cc6d224961cc82f809219bea8b6"},
		{"ls", func() Config { return goldenConfig(ProtoLS) }, nil, "6ca8219bf41b9d42fe1c8ab898b11d78cbefd4f5b868bdb0f3ea5b1b32ca92db"},
		{"bgp3-damping", goldenDampingConfig, []string{"route_flap", "route_reuse"}, "dfdc738c8ef8491ae40eacd113fec9975a0a30066055326692f29d618f6a9295"},
		{"script", timelineScriptConfig, []string{"cost_out", "cost_in", "link_loss", "node_down", "node_up", "churn_start", "churn_end"}, "22c81febbeea92927f9d4c52b4426350fc502ff5910ad4adac0697a7dc570479"},
		{"hybrid", timelineHybridConfig, []string{"fluid_demote", "fluid_absorb"}, "6bdaa3f48c734083f502ee8aa7fc57559db1a032dbc66437d986c9b049a7f952"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tl := obs.NewTimeline()
			if _, _, err := TraceObserved(tc.config(), 0, tl); err != nil {
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
		})
	}
}
