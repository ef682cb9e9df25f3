package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/trace"
)

// TestShardedGoldenEquivalence is the sharding correctness contract: every
// golden scenario, run with Shards ∈ {2, 4} and traced to a convergence
// timeline, must reproduce the sequential trial run without one
// bit-for-bit — the same TrialResult (compared textually so NaN delay bins
// compare equal), the same drop and path-sample streams, and the same
// timeline NDJSON, byte for byte. Conservative windows with the link delay
// as lookahead never reorder anything observable across instants; per-node
// and per-source random streams make the schedule independent of how nodes
// are distributed over simulators; and the recorder commits each instant
// in canonical order, whatever order its events arrived in. For ls the FIB
// records are the same but their times are not (see the route-change check
// below).
func TestShardedGoldenEquivalence(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref, _, err := Trace(sc.config(), 0)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%+v", ref)
			refTL := obs.NewTimeline()
			traced, refC, err := TraceObserved(sc.config(), 0, refTL)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%+v", traced); got != want {
				t.Errorf("a timeline changed the sequential trial:\n off: %s\n on:  %s", want, got)
			}
			for _, shards := range []int{2, 4} {
				cfg := sc.config()
				cfg.Shards = shards
				tl := obs.NewTimeline()
				tr, c, err := TraceObserved(cfg, 0, tl)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if got := fmt.Sprintf("%+v", tr); got != want {
					t.Errorf("shards=%d trial differs from sequential:\n seq:    %s\n shards: %s",
						shards, want, got)
				}
				compareDrops(t, shards, "drop", refC.Drops, c.Drops)
				compareDrops(t, shards, "control drop", refC.ControlDrops, c.ControlDrops)
				// The link-state scenario gets a weaker route-change check
				// instead of the byte comparison. When one LSA arrives at a
				// node from two neighbors at the same instant, whichever
				// arrival is processed first decides the reflood's "all but
				// the sender" set; the loser's link carries one extra
				// duplicate whose serialization displaces later messages by
				// microseconds. Every forwarding entry still passes through
				// the identical sequence of states, so that trajectory —
				// values in order, timestamps within a few link delays — is
				// what is pinned.
				if sc.name == "ls" {
					compareTrajectories(t, shards, fibRecords(refC), fibRecords(c))
				} else if a, b := ndjson(t, refTL), ndjson(t, tl); !bytes.Equal(a, b) {
					t.Errorf("shards=%d: timeline NDJSON differs from sequential (%d vs %d bytes)", shards, len(a), len(b))
				}
				if !reflect.DeepEqual(refC.PathHistory, c.PathHistory) {
					t.Errorf("shards=%d: path-sample streams differ (%d vs %d records)",
						shards, len(refC.PathHistory), len(c.PathHistory))
				}
			}
		})
	}
}

// compareDrops requires a sharded run's drops to agree with the sequential
// run's record for record in place and reason. Timestamps get a small
// tolerance: a data packet caught in a transient loop can race a
// same-instant route update at a node, and which one the engine processes
// first is a scheduling accident that sharding is allowed to resolve
// differently — the packet then exits the loop one traversal earlier or
// later, shifting its drop time (and the timing of the routing traffic
// around it) by a few link delays.
func compareDrops(t *testing.T, shards int, what string, ref, got []trace.Drop) {
	t.Helper()
	if len(ref) != len(got) {
		t.Errorf("shards=%d: %s vectors differ (%d vs %d records)", shards, what, len(ref), len(got))
		return
	}
	tol := 4 * netsim.DefaultConfig().LinkDelay
	for i := range ref {
		a, b := ref[i], got[i]
		dt := a.At - b.At
		if dt < 0 {
			dt = -dt
		}
		if a.Where != b.Where || a.Reason != b.Reason || dt > tol {
			t.Errorf("shards=%d: %s %d differs: seq %+v, sharded %+v", shards, what, i, a, b)
			return
		}
	}
}

// ndjson renders a timeline.
func ndjson(t *testing.T, tl *obs.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fibRecords returns the FIB records of a collector's committed stream.
func fibRecords(c *trace.Collector) []obs.Record {
	var out []obs.Record
	for _, r := range *c.Timeline() {
		if r.Kind == obs.KindFIBChange || r.Kind == obs.KindFIBRemove {
			out = append(out, r)
		}
	}
	return out
}

// compareTrajectories checks that every forwarding entry passes through
// the same sequence of states in both FIB record streams, with timestamps
// matching to within a few link delays (see the call site for why
// link-state floods jitter).
func compareTrajectories(t *testing.T, shards int, ref, got []obs.Record) {
	t.Helper()
	if len(ref) != len(got) {
		t.Errorf("shards=%d: FIB record streams differ (%d vs %d records)", shards, len(ref), len(got))
		return
	}
	type state struct {
		nh int32 // -1: removed
		at time.Duration
	}
	collect := func(recs []obs.Record) map[[2]int32][]state {
		m := make(map[[2]int32][]state)
		for _, r := range recs {
			k := [2]int32{r.Node, r.Dst}
			m[k] = append(m[k], state{nh: r.Peer, at: r.At})
		}
		return m
	}
	a, b := collect(ref), collect(got)
	tol := 4 * netsim.DefaultConfig().LinkDelay
	for k, sa := range a {
		sb := b[k]
		if len(sa) != len(sb) {
			t.Errorf("shards=%d: entry (%d,%d) has %d changes sequentially, %d sharded",
				shards, k[0], k[1], len(sa), len(sb))
			continue
		}
		for i := range sa {
			dt := sa[i].at - sb[i].at
			if dt < 0 {
				dt = -dt
			}
			if sa[i].nh != sb[i].nh || dt > tol {
				t.Errorf("shards=%d: entry (%d,%d) change %d differs: seq %+v, sharded %+v",
					shards, k[0], k[1], i, sa[i], sb[i])
				break
			}
		}
	}
}

// TestShardedHybridConservation re-runs the hybrid conservation check under
// sharded execution: the combined packet+fluid accounting identity must
// hold with per-shard counters folded at the end, and the sharding metrics
// must show the machinery actually engaged. The barrier also settles
// deferred FIB changes for the fluid engine, reading the tables the replay
// has put back; eliding unwatched route events must not disturb that, so
// the compact trial (Run's path) equals the full-record one field for field.
func TestShardedHybridConservation(t *testing.T) {
	cfg := goldenConfig(ProtoRIP)
	cfg.Flows = 32
	cfg.Mode = ModeHybrid
	cfg.Metrics = true
	cfg.Shards = 4
	tr, _, err := TraceObserved(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics
	if m == nil {
		t.Fatal("Metrics enabled but TrialResult.Metrics is nil")
	}
	compact, _ := runCompact(t, cfg)
	if got, want := fmt.Sprintf("%+v", compact), fmt.Sprintf("%+v", tr); got != want {
		t.Errorf("compact sharded hybrid trial differs from the full-record one:\n full:    %s\n compact: %s", want, got)
	}
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated under sharding: delivered+drops+in_flight = %d, sent = %d\nsnapshot: %v",
			accounted, m["packets.sent"], m)
	}
	if m["fluid.settles"] == 0 {
		t.Error("fluid.settles = 0, want > 0 — the fluid engine never ran")
	}
	if m["shard.barrier_waits"] == 0 {
		t.Error("shard.barrier_waits = 0, want > 0 — the run never synchronized")
	}
	if m["shard.cross_msgs"] == 0 {
		t.Error("shard.cross_msgs = 0, want > 0 — no packet ever crossed a shard boundary")
	}
}

// runCompact runs trial 0 the way Run does — compact collectors, which is
// what lets a sharded run elide the route changes nobody watches — but
// keeps the primary flow's collector for inspection.
func runCompact(t *testing.T, cfg Config) (TrialResult, *trace.Collector) {
	t.Helper()
	if err := cfg.resolve(); err != nil {
		t.Fatal(err)
	}
	tr, c, err := runTrial(&cfg, 0, nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Timeline() != nil {
		t.Fatalf("compact collector kept a record stream of %d records", c.Timeline().Len())
	}
	return tr, c
}

// TestShardedCompactEquivalence is TestShardedGoldenEquivalence for the
// path Run takes. A compact collector watches only its own destination's
// route changes (netsim.RouteFilter); a sharded run buffers, rewinds and
// replays only those and folds the rest in as a count and a latest time per
// barrier. None of that may show: the TrialResult, the path samples, and
// the route-change count and last-change time (a maximum over shards and
// replayed events, not whichever was reported last) must equal the
// sequential run's exactly, on every golden, with one collector and with
// three.
func TestShardedCompactEquivalence(t *testing.T) {
	scenarios := goldenScenarios()
	scenarios = append(scenarios, struct {
		name   string
		config func() Config
	}{"rip-3flows", func() Config {
		cfg := goldenConfig(ProtoRIP)
		cfg.Flows = 3 // packet mode: three collectors, three watched destinations
		return cfg
	}})
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			ref, refC := runCompact(t, sc.config())
			want := fmt.Sprintf("%+v", ref)
			if full, _, err := Trace(sc.config(), 0); err != nil {
				t.Fatal(err)
			} else if got := fmt.Sprintf("%+v", full); got != want {
				t.Errorf("compact trial differs from the full-record one:\n full:    %s\n compact: %s", got, want)
			}
			for _, shards := range []int{2, 4} {
				cfg := sc.config()
				cfg.Shards = shards
				tr, c := runCompact(t, cfg)
				if got := fmt.Sprintf("%+v", tr); got != want {
					t.Errorf("shards=%d compact trial differs from sequential:\n seq:    %s\n shards: %s",
						shards, want, got)
				}
				if !reflect.DeepEqual(refC.PathHistory, c.PathHistory) {
					t.Errorf("shards=%d: path-sample streams differ (%d vs %d records)",
						shards, len(refC.PathHistory), len(c.PathHistory))
				}
				if a, b := refC.NumRouteChanges(), c.NumRouteChanges(); a != b {
					t.Errorf("shards=%d: %d route changes counted, sequential counted %d", shards, b, a)
				}
				if a, b := refC.RoutingConvergence(0), c.RoutingConvergence(0); a != b {
					t.Errorf("shards=%d: last route change at %v, sequential at %v", shards, b, a)
				}
			}
		})
	}
}
