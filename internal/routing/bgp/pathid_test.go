package bgp_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/obs"
	"routeconv/internal/routing/bgp"
)

// goldenConfig is core's golden reference trial: the paper's default
// degree-4 setup, seed 1, cut 60 s past the failure.
func goldenConfig(k core.ProtocolKind) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = k
	cfg.Trials = 1
	cfg.End = cfg.FailAt + 60*time.Second
	cfg.Seed = 1
	return cfg
}

// TestPathIDsDoNotDecide: best-path selection reads path lengths and
// neighbor ranks, never path IDs, so a trial does not depend on how its
// path table numbers paths. Tables that start with a thousand decoy cells
// give every real path another ID, and some of them out of order; the
// bgp, bgp3 and bgp3-damping goldens and a two-shard BGP trial (one table
// per shard) must come out identical — results, record stream and path
// samples.
func TestPathIDsDoNotDecide(t *testing.T) {
	damping := goldenConfig(core.ProtoBGP3)
	damping.Scenario = "failpath @400s restore=3s flaps=5"
	dcfg := bgp.DefaultDampingConfig()
	dcfg.HalfLife = 60 * time.Second
	damping.BGP3.Damping = &dcfg
	sharded := goldenConfig(core.ProtoBGP)
	sharded.Shards = 2
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"bgp", goldenConfig(core.ProtoBGP)},
		{"bgp3", goldenConfig(core.ProtoBGP3)},
		{"bgp3-damping", damping},
		{"bgp-shards2", sharded},
	}
	type run struct {
		result   string
		timeline *obs.Timeline
		paths    any
	}
	trial := func(t *testing.T, cfg core.Config) run {
		t.Helper()
		tl := obs.NewTimeline()
		tr, col, err := core.TraceObserved(cfg, 0, tl)
		if err != nil {
			t.Fatal(err)
		}
		return run{fmt.Sprintf("%+v", tr), tl, col.PathHistory}
	}
	want := make([]run, len(cases))
	for i, tc := range cases {
		want[i] = trial(t, tc.cfg)
	}
	restore := bgp.WithDecoyCells(1000)
	defer restore()
	for i, tc := range cases {
		got := trial(t, tc.cfg)
		if got.result != want[i].result {
			t.Errorf("%s: result with decoy cells\n  %s\nwithout\n  %s", tc.name, got.result, want[i].result)
		}
		if !reflect.DeepEqual(got.timeline, want[i].timeline) {
			t.Errorf("%s: record stream differs with decoy cells", tc.name)
		}
		if !reflect.DeepEqual(got.paths, want[i].paths) {
			t.Errorf("%s: path samples differ with decoy cells", tc.name)
		}
	}
}
