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

// checkTracedInvariant runs the bgp, bgp3 and bgp3-damping goldens and a
// two-shard BGP trial (one path table per shard) by default and again
// between set and the restore it returns, and requires identical results,
// record streams and path samples; how names the variant in failures.
func checkTracedInvariant(t *testing.T, how string, set func() (restore func())) {
	t.Helper()
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
	trial := func(cfg core.Config) run {
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
		want[i] = trial(tc.cfg)
	}
	restore := set()
	defer restore()
	for i, tc := range cases {
		got := trial(tc.cfg)
		if got.result != want[i].result {
			t.Errorf("%s: result %s\n  %s\nby default\n  %s", tc.name, how, got.result, want[i].result)
		}
		if !reflect.DeepEqual(got.timeline, want[i].timeline) {
			t.Errorf("%s: record stream differs %s", tc.name, how)
		}
		if !reflect.DeepEqual(got.paths, want[i].paths) {
			t.Errorf("%s: path samples differ %s", tc.name, how)
		}
	}
}

// TestPathIDsDoNotDecide: best-path selection reads path lengths and
// neighbor ranks, never path IDs, so a trial does not depend on how its
// path table numbers paths. Tables that start with a thousand decoy cells
// give every real path another ID, and some of them out of order; the
// traced trials must come out identical.
func TestPathIDsDoNotDecide(t *testing.T) {
	checkTracedInvariant(t, "with decoy cells", func() func() { return bgp.WithDecoyCells(1000) })
}
