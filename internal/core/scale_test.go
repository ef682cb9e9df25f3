package core

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"routeconv/internal/obs"
	"routeconv/internal/routing"
)

// scaleSmokeConfig is the shared internet-scale trial: one full RIP
// convergence trial — warm-up, probe flow, on-path link failure,
// measurement — on a 10,000-node power-law graph.
//
// The configuration scales the paper's §5 parameters to 10k nodes rather
// than copying them: periodic full-table floods are pushed past the
// horizon (a 10k-node full table is ~667 packets per link — triggered
// updates carry convergence), triggered-update damping is tightened so
// convergence completes within the short horizon, and MaxEntries is raised
// so a full table is hundreds rather than thousands of packets.
func scaleSmokeConfig() Config { return scaleTrialConfig(10000) }

// scaleTrialConfig is the scale trial on an n-node graph.
func scaleTrialConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Protocol = ProtoRIP
	cfg.Topo = fmt.Sprintf("ba:n=%d,m=2,seed=1", n)
	cfg.Trials = 1
	cfg.SenderStart = 12 * time.Second
	cfg.FailAt = 15 * time.Second
	cfg.End = 25 * time.Second
	cfg.Vector.PeriodicInterval = 600 * time.Second // beyond the horizon
	cfg.Vector.PeriodicJitter = time.Second
	cfg.Vector.DampMin = 500 * time.Millisecond
	cfg.Vector.DampMax = time.Second
	cfg.Vector.MaxEntries = 5000
	cfg.Vector.Infinity = 24 // BA diameter ~10; default 16 is too tight a margin, 64 drags out count-to-infinity
	return cfg
}

// scaleAllocCeiling is the most a sequential scale trial may allocate, in
// bytes. What has to be dense is the protocol's state — per router pair,
// and per (neighbor, destination) pair for the per-neighbor tables — plus
// the FIB (2-byte ranks), on each of the n+2 nodes (the probe's two hosts
// and their links included):
//
//   - rip: 8-byte rows and the changed bitmap;
//   - dbf: rip's table, the known set, and an int32 cache entry per
//     neighbor and destination;
//   - bgp: a best-path ID and a dirty flag per destination, and per
//     neighbor and destination two path IDs (Adj-RIB-In and -Out) and a
//     pending flag.
//
// Half of that again covers what grows with the tables — advertisement
// bursts carry table-sized updates, BGP's path table holds the paths —
// and 4 kB per node what is linear in nodes and edges: ports, links,
// protocol instances, timers, the event arena. At n = 1000 the rip trial
// allocates 16.8 MB against 19.4 MB; 16-byte rows (27.6 MB), burst free
// lists kept per node, or a port table indexed by neighbor ID do not fit.
// dbf allocates 34.4 MB against 44.9 MB and bgp 55.6 MB against 68.7 MB;
// per-neighbor state indexed by node ID (59.3 MB and 200.9 MB) does not
// fit. TestRoutingStateWidths pins the row and FIB widths.
func scaleAllocCeiling(t *testing.T, cfg Config) uint64 {
	t.Helper()
	if err := cfg.ResolveTopology(); err != nil {
		t.Fatal(err)
	}
	nodes := uint64(cfg.Topology.Len() + 2)
	adj := 2 * uint64(cfg.Topology.NumEdges()+2) // neighbor slots, both ends of every link
	var dense uint64
	switch cfg.Protocol {
	case ProtoRIP:
		dense = nodes*nodes*8 + nodes*nodes/8
	case ProtoDBF:
		dense = nodes*nodes*(8+1) + nodes*nodes/8 + adj*nodes*4
	case ProtoBGP:
		dense = nodes*nodes*(4+1) + adj*nodes*(4+4+1)
	default:
		t.Fatalf("no allocation ceiling for %v", cfg.Protocol)
	}
	dense += nodes * nodes * 2 // the FIB
	return dense + dense/2 + 4096*nodes
}

// TestRoutingStateWidths pins the per-destination width scaleAllocCeiling
// budgets for a distance-vector row. netsim's TestFIBSlotWidth pins the
// FIB slot's.
func TestRoutingStateWidths(t *testing.T) {
	if got := unsafe.Sizeof(routing.Row{}); got != 8 {
		t.Errorf("routing.Row is %d bytes, want 8", got)
	}
}

// runScaleTrial runs the trial and returns the bytes it allocated.
// TotalAlloc is cumulative and repeats to the byte on one host, so the
// collector's timing does not enter.
func runScaleTrial(t *testing.T, cfg Config) (*Result, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, after.TotalAlloc - before.TotalAlloc
}

// TestScaleTrialAllocCeiling pins what a scale trial allocates to what is
// live, per protocol: the dense state plus slack (see scaleAllocCeiling).
// It is the tier-1 twin of the 10k-node smoke's ceiling, small enough for
// every test run. BGP's 30 s MRAI outlasts the trial's warm-up, so only
// the vector protocols are held to warming up.
func TestScaleTrialAllocCeiling(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		proto ProtocolKind
		warms bool
	}{
		{ProtoRIP, true},
		{ProtoDBF, true},
		{ProtoBGP, false},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			cfg := scaleTrialConfig(n)
			cfg.Protocol = tc.proto
			res, alloc := runScaleTrial(t, cfg)
			if tc.warms && res.WarmedUpTrials != 1 {
				t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
			}
			ceiling := scaleAllocCeiling(t, cfg)
			t.Logf("%d-node BA %v trial allocated %.1f MB, ceiling %.1f MB", n, tc.proto, float64(alloc)/1e6, float64(ceiling)/1e6)
			if alloc > ceiling {
				t.Errorf("trial allocated %d bytes, over the ceiling of %d: memory no longer follows what is live", alloc, ceiling)
			}
		})
	}
}

// TestMeshTrialAllocCeiling pins what one default trial on the paper's
// 49-node mesh allocates to what its results hold (meshAllocCeiling), for
// BGP, whose path state is the larger part, and for RIP, whose delivery
// record is.
func TestMeshTrialAllocCeiling(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoBGP, ProtoRIP} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Trials = 1
			_, alloc := runScaleTrial(t, cfg)
			ceiling := meshAllocCeiling(cfg)
			t.Logf("49-node mesh %v trial allocated %.2f MB, ceiling %.2f MB", proto, float64(alloc)/1e6, float64(ceiling)/1e6)
			if alloc > ceiling {
				t.Errorf("trial allocated %d bytes, over the ceiling of %d: a mesh trial allocates more than its results hold", alloc, ceiling)
			}
		})
	}
}

// meshAllocCeiling is the most a trial on the paper's mesh may allocate,
// in bytes: what its results hold, plus a budget per node for what
// produces them.
//
//   - Results: Throughput and Delay, 8 bytes per second each, and the
//     post-failure delays that DelayP50/P95/Max are read from, 8 bytes per
//     packet sent after the failure, in a list sized once.
//   - Per node, the 49 routers and the probe's two hosts: 10 kB of
//     network, engine and protocol state, and for BGP 15 kB more — its
//     dense RIBs and its share of the one path table of its execution
//     context (a 12-byte cell and a map entry per distinct path, 4.1k to
//     5.7k paths on the mesh, and the update free list).
//
// At degree 4 and seed 1, BGP allocates 1.13 MB against 1.38 MB and RIP
// 0.43 MB against 0.59 MB. A per-delivery record in the compact recorder
// (32 bytes per packet: 2.6 and 1.6 MB), a path table per speaker
// (BGP 4.4 MB) or a delay list grown by append (RIP 0.63 MB) does not fit.
func meshAllocCeiling(cfg Config) uint64 {
	const kB = 1 << 10
	seconds := uint64((cfg.End - cfg.SenderStart) / time.Second)
	postFail := uint64((cfg.End - cfg.FailAt) / cfg.PacketInterval)
	results := 2*8*seconds + 8*(postFail+1)
	perNode := uint64(10 * kB)
	if cfg.Protocol == ProtoBGP || cfg.Protocol == ProtoBGP3 {
		perNode += 15 * kB
	}
	return results + perNode*uint64(cfg.Rows*cfg.Cols+2)
}

// churnTraceScript is a scripted storm on the paper's mesh: the failure,
// a node outage, a lossy link, a flapping link and a 260 s window of
// random link failures.
const churnTraceScript = "failpath @400s; fail node 24 @420s; recover node 24 @450s; " +
	"loss link 10-11 p=0.05 @405s; flap link 17-18 every 4s x10 @460s; " +
	"churn links rate=1/s down=5s @500s..760s"

// TestTracedTrialAllocCeiling pins what a full-record trial allocates —
// the simulation, its committed timeline and the timeline's NDJSON
// rendering — to what that timeline holds (tracedAllocCeiling), for RIP,
// whose timeline is the longer, and for BGP, whose path state is larger.
func TestTracedTrialAllocCeiling(t *testing.T) {
	for _, proto := range []ProtocolKind{ProtoRIP, ProtoBGP} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = proto
			cfg.Trials = 1
			cfg.Scenario = churnTraceScript
			tl := obs.NewTimeline()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := TraceObserved(cfg, 0, tl)
			if err == nil {
				err = tl.WriteNDJSON(io.Discard)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			ceiling := tracedAllocCeiling(cfg, tl.Len())
			t.Logf("traced %v churn trial: %d records, allocated %.2f MB, ceiling %.2f MB",
				proto, tl.Len(), float64(alloc)/1e6, float64(ceiling)/1e6)
			if alloc > ceiling {
				t.Errorf("trial allocated %d bytes, over the ceiling of %d: a traced trial allocates more than its timeline holds", alloc, ceiling)
			}
		})
	}
}

// tracedAllocCeiling is the most a full-record trial on the paper's mesh
// may allocate, in bytes, given the number of records its timeline holds:
//
//   - The timeline: 24 bytes per record, the stored form, and one
//     4096-record block of slack. The stream never copies a record, so a
//     stream that doubled its storage (three times what it holds, at any
//     record width) does not fit. Rendering allocates nothing per record.
//   - Results: per packet the primary flow sends, a 32-byte delivery and
//     an 8-byte post-failure delay (both lists are sized once), and 16
//     bytes per second of bins.
//   - Per node, the 49 routers and the probe's two hosts: 18 kB of
//     network, engine, protocol and recorder state, and for BGP 32 kB
//     more: its dense RIBs and its share of the path table, which the
//     storm fills with far more paths than one failure does (a third of
//     what the BGP trial allocates).
//
// At degree 4 and seed 1, RIP's timeline holds 43 066 records and the trial
// allocates 2.1 MB against 2.4 MB; BGP's holds 27 964 and the trial 3.3 MB
// against 3.7 MB. Storing the same 24-byte records in a stream that doubles
// when full costs 4.1 and 4.2 MB.
func tracedAllocCeiling(cfg Config, records int) uint64 {
	const kB = 1 << 10
	seconds := uint64((cfg.End - cfg.SenderStart) / time.Second)
	packets := uint64((cfg.End - cfg.SenderStart) / cfg.PacketInterval)
	timeline := 24*uint64(records) + 24*4096
	results := (32+8)*packets + 2*8*seconds
	perNode := uint64(18 * kB)
	if cfg.Protocol == ProtoBGP || cfg.Protocol == ProtoBGP3 {
		perNode += 32 * kB
	}
	return timeline + results + perNode*uint64(cfg.Rows*cfg.Cols+2)
}

// TestScaleSmoke10k runs the 10,000-node trial (scaleSmokeConfig) four
// ways: as it is, carrying a million hybrid background flows, split over
// eight shards, and disturbed by churn and random loss. Each case checks
// what repeats from run to run — the allocation ceiling, warm-up,
// delivery, packet conservation, sharded ≡ sequential, and that the engine
// under test engaged. How long a trial takes is measured with bench/, not
// asserted here. The test is gated behind SCALE_SMOKE=1 so the ordinary
// test run stays fast; CI runs one case per matrix job
// (-run 'TestScaleSmoke10k/^sequential$').
func TestScaleSmoke10k(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the 10k-node smokes")
	}
	// The trial allocates update bursts at a high rate but retains little;
	// default GC pacing would run thousands of cycles over the trial.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	for _, tc := range []struct {
		name string
		// config adjusts scaleSmokeConfig for the case.
		config func(t *testing.T, cfg *Config)
		check  func(t *testing.T, res *Result, alloc uint64)
	}{
		{
			name:   "sequential",
			config: func(*testing.T, *Config) {},
			check: func(t *testing.T, res *Result, alloc uint64) {
				if ceiling := scaleAllocCeiling(t, scaleSmokeConfig()); alloc > ceiling {
					t.Errorf("trial allocated %d bytes, over the ceiling of %d — a scale regression", alloc, ceiling)
				}
				if res.WarmedUpTrials != 1 {
					t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
				}
				if res.DeliveryRatio <= 0 {
					t.Errorf("delivery ratio = %v, want > 0", res.DeliveryRatio)
				}
			},
		},
		{
			// One million background flows through the fluid evaluator (the
			// probe stays packet-simulated): flow count must not multiply
			// event count.
			name: "hybrid-1m",
			config: func(_ *testing.T, cfg *Config) {
				cfg.Flows = 1_000_000
				cfg.Mode = ModeHybrid
				// A wide guard would re-emit hundreds of thousands of flows
				// as packet sources on every convergence wave; half a second
				// bounds the burst while still covering the micro-loop
				// window the paper measures.
				cfg.GuardWindow = 500 * time.Millisecond
				// Per-flow rate is scaled down so a million classes model a
				// realistic aggregate instead of 20M pps: one packet per 2 s
				// each.
				cfg.PacketInterval = 2 * time.Second
				cfg.Metrics = true
			},
			check: func(t *testing.T, res *Result, _ uint64) {
				m := res.Trials[0].Metrics
				if res.WarmedUpTrials != 1 {
					t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
				}
				if res.Trials[0].Sent < 4_000_000 {
					t.Errorf("sent = %d, want ≥ 4M (a million flows × ≥ 4 ticks each)", res.Trials[0].Sent)
				}
				if m["fluid.settles"] == 0 {
					t.Error("fluid.settles = 0 — the fluid engine never engaged")
				}
				checkConserved(t, m)
			},
		},
		{
			// Eight shard simulators must reproduce the sequential trial's
			// headline results: the determinism contract checked
			// exhaustively on the 26-node goldens holds at internet scale.
			name: "sharded",
			config: func(_ *testing.T, cfg *Config) {
				cfg.Shards = 8
				cfg.Metrics = true
			},
			check: func(t *testing.T, res *Result, _ uint64) {
				seq, err := Run(scaleSmokeConfig())
				if err != nil {
					t.Fatal(err)
				}
				a, b := seq.Trials[0], res.Trials[0]
				if a.Sent != b.Sent || a.Delivered != b.Delivered ||
					a.NoRouteDrops != b.NoRouteDrops || a.TTLDrops != b.TTLDrops ||
					a.LinkFailureDrops != b.LinkFailureDrops || a.QueueDrops != b.QueueDrops ||
					a.RoutingConvergence != b.RoutingConvergence || a.ForwardingConvergence != b.ForwardingConvergence {
					t.Errorf("sharded trial diverged from sequential at 10k nodes:\n seq:    sent=%d delivered=%d drops=%d/%d/%d/%d conv=%v/%v\n shards: sent=%d delivered=%d drops=%d/%d/%d/%d conv=%v/%v",
						a.Sent, a.Delivered, a.NoRouteDrops, a.TTLDrops, a.LinkFailureDrops, a.QueueDrops, a.RoutingConvergence, a.ForwardingConvergence,
						b.Sent, b.Delivered, b.NoRouteDrops, b.TTLDrops, b.LinkFailureDrops, b.QueueDrops, b.RoutingConvergence, b.ForwardingConvergence)
				}
				if b.Metrics["shard.barrier_waits"] == 0 {
					t.Error("shard.barrier_waits = 0 — the sharded path never engaged")
				}
			},
		},
		{
			// The paper's on-path failure, then continuous link churn, with
			// random loss on a tenth of the links.
			name: "churn-loss",
			config: func(t *testing.T, cfg *Config) {
				cfg.Metrics = true
				// Resolve the BA graph up front so the script can name real
				// links.
				if err := cfg.ResolveTopology(); err != nil {
					t.Fatal(err)
				}
				// Keep the paper's measured failure.
				script := fmt.Sprintf("failpath @%v; churn links rate=2/s down=500ms @16s..22s", cfg.FailAt)
				// The low-id end of the sorted edge list includes the hubs;
				// those links get 5% random loss just before the failure.
				for _, e := range cfg.Topology.Edges()[:2000] {
					script += fmt.Sprintf("; loss link %d-%d p=0.05 @14s", e.A, e.B)
				}
				cfg.Scenario = script
			},
			check: func(t *testing.T, res *Result, _ uint64) {
				m := res.Trials[0].Metrics
				checkConserved(t, m)
				if m["scenario.churn_cycles"] == 0 {
					t.Error("scenario.churn_cycles = 0 — the churn window never fired")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scaleSmokeConfig()
			tc.config(t, &cfg)
			res, alloc := runScaleTrial(t, cfg)
			tr := res.Trials[0]
			t.Logf("10k-node BA RIP trial, %s: alloc=%.0fMB warmed=%d delivery=%.4f sent=%d fwdconv=%.2fs drops(noroute=%d ttl=%d link=%d)",
				tc.name, float64(alloc)/1e6, res.WarmedUpTrials, res.DeliveryRatio, tr.Sent,
				res.MeanFwdConv, tr.NoRouteDrops, tr.TTLDrops, tr.LinkFailureDrops)
			tc.check(t, res, alloc)
		})
	}
}

// checkConserved fails the test unless every packet sent is accounted
// for: delivered, dropped for a cause, or in flight at the end.
func checkConserved(t *testing.T, m obs.Snapshot) {
	t.Helper()
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["drops.random_loss"] +
		m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated at scale: accounted %d, sent %d", accounted, m["packets.sent"])
	}
}
