package core

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
	"routeconv/internal/scenario"
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

// scaleAllocCeiling is the most a sequential scale trial on an n-node graph
// may allocate, in bytes. What has to be n² is RIP's dense table (8-byte
// rows plus the changed bitmap) and the FIB (2-byte ranks) on each of the
// n+2 nodes (the probe's two hosts included). Half of that again covers
// what grows with the tables — advertisement bursts carry table-sized
// updates — and 4 kB per node what is linear in nodes and edges: ports,
// links, protocol instances, timers, the event arena. At n = 1000 the trial
// allocates 17.4 MB against 19.4 MB; 16-byte rows (27.6 MB), burst free
// lists kept per node, or a port table indexed by neighbor ID do not fit.
// TestRoutingStateWidths pins the two widths.
func scaleAllocCeiling(n int) uint64 {
	nodes := uint64(n + 2)
	dense := nodes*nodes*(8+2) + nodes*nodes/8
	return dense + dense/2 + 4096*nodes
}

// TestRoutingStateWidths pins the per-destination widths scaleAllocCeiling
// budgets for: a distance-vector row and a FIB slot.
func TestRoutingStateWidths(t *testing.T) {
	if got := unsafe.Sizeof(routing.Row{}); got != 8 {
		t.Errorf("routing.Row is %d bytes, want 8", got)
	}
	if netsim.FIBSlotBytes != 2 {
		t.Errorf("a FIB slot is %d bytes, want 2", netsim.FIBSlotBytes)
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
// live: the n² tables plus slack (see scaleAllocCeiling). It is the tier-1
// twin of the 10k-node smoke's ceiling, small enough for every test run.
func TestScaleTrialAllocCeiling(t *testing.T) {
	const n = 1000
	res, alloc := runScaleTrial(t, scaleTrialConfig(n))
	if res.WarmedUpTrials != 1 {
		t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
	}
	ceiling := scaleAllocCeiling(n)
	t.Logf("%d-node BA RIP trial allocated %.1f MB, ceiling %.1f MB", n, float64(alloc)/1e6, float64(ceiling)/1e6)
	if alloc > ceiling {
		t.Errorf("trial allocated %d bytes, over the ceiling of %d: memory no longer follows what is live", alloc, ceiling)
	}
}

// smokeBudget reads the wall-clock budget for the scale smokes, overridable
// with SCALE_SMOKE_BUDGET_SECONDS.
func smokeBudget(t *testing.T) time.Duration {
	budget := 60 * time.Second
	if s := os.Getenv("SCALE_SMOKE_BUDGET_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SCALE_SMOKE_BUDGET_SECONDS %q", s)
		}
		budget = time.Duration(secs) * time.Second
	}
	return budget
}

// TestScaleSmoke10kBA runs the internet-scale trial sequentially under a
// wall-clock budget. It is gated behind SCALE_SMOKE=1 (CI runs it in a
// dedicated job) so the ordinary test run stays fast.
func TestScaleSmoke10kBA(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the 10k-node smoke")
	}
	budget := smokeBudget(t)
	cfg := scaleSmokeConfig()

	// The trial allocates update bursts at a high rate but retains little;
	// default GC pacing would run thousands of cycles over the trial.
	defer debug.SetGCPercent(debug.SetGCPercent(400))

	start := time.Now()
	res, alloc := runScaleTrial(t, cfg)
	wall := time.Since(start)
	t.Logf("10k-node BA RIP trial: wall=%.2fs alloc=%.0fMB warmed=%d delivery=%.4f fwdconv=%.2fs drops(noroute=%.0f ttl=%.0f link=%.0f)",
		wall.Seconds(), float64(alloc)/1e6, res.WarmedUpTrials, res.DeliveryRatio,
		res.MeanFwdConv, res.MeanNoRouteDrops, res.MeanTTLDrops, res.MeanLinkDrops)
	if ceiling := scaleAllocCeiling(10000); alloc > ceiling {
		t.Errorf("trial allocated %d bytes, over the ceiling of %d — a scale regression", alloc, ceiling)
	}
	if res.WarmedUpTrials != 1 {
		t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
	}
	if res.DeliveryRatio <= 0 {
		t.Errorf("delivery ratio = %v, want > 0", res.DeliveryRatio)
	}
	if wall > budget {
		t.Errorf("trial took %.1fs, over the %.0fs budget — a scale regression", wall.Seconds(), budget.Seconds())
	}
}

// TestHybridSmoke1M is the hybrid traffic engine's scale smoke: the same
// 10k-node BA convergence trial as TestScaleSmoke10kBA, but carrying one
// million background flows through the fluid evaluator (the probe stays
// packet-simulated). The point of the tentpole is that flow count no
// longer multiplies event count, so this must finish in the same order of
// wall time as the single-flow smoke. Gated behind SCALE_SMOKE=1; budget
// override and BENCH_OUT (write a BENCH-style JSON fragment) as in CI.
func TestHybridSmoke1M(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the 1M-flow hybrid smoke")
	}
	budget := smokeBudget(t)

	cfg := scaleSmokeConfig()
	cfg.Flows = 1_000_000
	cfg.Mode = ModeHybrid
	// A wide guard would re-emit hundreds of thousands of flows as packet
	// sources on every convergence wave; half a second bounds the burst
	// while still covering the micro-loop window the paper measures.
	cfg.GuardWindow = 500 * time.Millisecond
	// Per-flow rate is scaled down so a million classes model a realistic
	// aggregate instead of 20M pps: one packet per 2 s each.
	cfg.PacketInterval = 2 * time.Second
	cfg.Metrics = true

	defer debug.SetGCPercent(debug.SetGCPercent(400))

	start := time.Now()
	res, err := Run(cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trials[0].Metrics
	t.Logf("1M-flow hybrid 10k-node BA RIP trial: wall=%.2fs delivery=%.4f sent=%d settles=%d demotions=%d reabsorptions=%d",
		wall.Seconds(), res.DeliveryRatio, res.Trials[0].Sent,
		m["fluid.settles"], m["fluid.demotions"], m["fluid.reabsorptions"])
	if res.WarmedUpTrials != 1 {
		t.Errorf("trial did not warm up: %d/1", res.WarmedUpTrials)
	}
	if res.Trials[0].Sent < 4_000_000 {
		t.Errorf("sent = %d, want ≥ 4M (a million flows × ≥ 4 ticks each)", res.Trials[0].Sent)
	}
	if m["fluid.settles"] == 0 {
		t.Error("fluid.settles = 0 — the fluid engine never engaged")
	}
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["drops.random_loss"] +
		m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated at scale: accounted %d, sent %d", accounted, m["packets.sent"])
	}
	if wall > budget {
		t.Errorf("trial took %.1fs, over the %.0fs budget — a hybrid-engine scale regression", wall.Seconds(), budget.Seconds())
	}
	if out := os.Getenv("BENCH_OUT"); out != "" {
		fragment := fmt.Sprintf(`{"hybrid_smoke_1m_flows_10k_ba": {"wall_seconds": %.2f, "flows": %d, "sent": %d, "delivery": %.4f, "settles": %d, "demotions": %d}}`+"\n",
			wall.Seconds(), cfg.Flows, res.Trials[0].Sent, res.DeliveryRatio,
			m["fluid.settles"], m["fluid.demotions"])
		if err := os.WriteFile(out, []byte(fragment), 0o644); err != nil {
			t.Errorf("BENCH_OUT: %v", err)
		}
	}
}

// TestShardSmoke10kBA is the sharded-execution scale smoke: the same
// 10k-node trial run sequentially and then with SCALE_SMOKE_SHARDS shards
// (default 8). Both runs must produce identical headline results — the
// determinism contract checked exhaustively on the 26-node goldens holds
// at internet scale too — and the sharded run's wall clock is reported
// next to the sequential one. The speedup assertion is left to CI, which
// runs on a multi-core host; on GOMAXPROCS=1 the shard goroutines
// time-slice one core and the barrier overhead makes the parallel run
// slightly slower, which is expected and recorded, not failed.
func TestShardSmoke10kBA(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the sharded 10k-node smoke")
	}
	budget := smokeBudget(t)
	shards := 8
	if s := os.Getenv("SCALE_SMOKE_SHARDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad SCALE_SMOKE_SHARDS %q", s)
		}
		shards = n
	}

	defer debug.SetGCPercent(debug.SetGCPercent(400))

	cfg := scaleSmokeConfig()
	start := time.Now()
	seq, err := Run(cfg)
	seqWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	cfg = scaleSmokeConfig()
	cfg.Shards = shards
	cfg.Metrics = true
	start = time.Now()
	par, err := Run(cfg)
	parWall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	speedup := seqWall.Seconds() / parWall.Seconds()
	m := par.Trials[0].Metrics
	t.Logf("10k-node BA RIP trial: sequential=%.2fs shards=%d sharded=%.2fs speedup=%.2fx gomaxprocs=%d barriers=%d cross_msgs=%d",
		seqWall.Seconds(), shards, parWall.Seconds(), speedup, runtime.GOMAXPROCS(0),
		m["shard.barrier_waits"], m["shard.cross_msgs"])

	a, b := seq.Trials[0], par.Trials[0]
	if a.Sent != b.Sent || a.Delivered != b.Delivered ||
		a.NoRouteDrops != b.NoRouteDrops || a.TTLDrops != b.TTLDrops ||
		a.LinkFailureDrops != b.LinkFailureDrops || a.QueueDrops != b.QueueDrops ||
		a.RoutingConvergence != b.RoutingConvergence || a.ForwardingConvergence != b.ForwardingConvergence {
		t.Errorf("sharded trial diverged from sequential at 10k nodes:\n seq:    sent=%d delivered=%d drops=%d/%d/%d/%d conv=%v/%v\n shards: sent=%d delivered=%d drops=%d/%d/%d/%d conv=%v/%v",
			a.Sent, a.Delivered, a.NoRouteDrops, a.TTLDrops, a.LinkFailureDrops, a.QueueDrops, a.RoutingConvergence, a.ForwardingConvergence,
			b.Sent, b.Delivered, b.NoRouteDrops, b.TTLDrops, b.LinkFailureDrops, b.QueueDrops, b.RoutingConvergence, b.ForwardingConvergence)
	}
	if m["shard.barrier_waits"] == 0 {
		t.Error("shard.barrier_waits = 0 — the sharded path never engaged")
	}
	if parWall > budget {
		t.Errorf("sharded trial took %.1fs, over the %.0fs budget", parWall.Seconds(), budget.Seconds())
	}
	if out := os.Getenv("BENCH_OUT"); out != "" {
		fragment := fmt.Sprintf(`{"shard_smoke_10k_ba": {"sequential_wall_seconds": %.2f, "shards": %d, "sharded_wall_seconds": %.2f, "speedup": %.2f, "gomaxprocs": %d, "barrier_waits": %d, "cross_msgs": %d}}`+"\n",
			seqWall.Seconds(), shards, parWall.Seconds(), speedup, runtime.GOMAXPROCS(0),
			m["shard.barrier_waits"], m["shard.cross_msgs"])
		if err := os.WriteFile(out, []byte(fragment), 0o644); err != nil {
			t.Errorf("BENCH_OUT: %v", err)
		}
	}
}

// TestScenarioSmoke10kChurnLoss is the scenario engine's scale smoke: the
// 10k-node BA convergence trial disturbed by a scripted schedule — the
// paper's on-path failure, then continuous link churn with random loss on a
// slice of links — with the packet-conservation identity as pass/fail.
// Gated behind SCALE_SMOKE=1; budget override and BENCH_OUT as in CI.
func TestScenarioSmoke10kChurnLoss(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") != "1" {
		t.Skip("set SCALE_SMOKE=1 to run the 10k-node scenario smoke")
	}
	budget := smokeBudget(t)
	cfg := scaleSmokeConfig()
	cfg.Metrics = true
	// Resolve the BA graph up front so the script can name real links.
	if err := cfg.ResolveTopology(); err != nil {
		t.Fatal(err)
	}
	b := scenario.NewBuilder()
	b.FailPath(cfg.FailAt, 0, 0) // keep the paper's measured failure
	b.Churn(16*time.Second, 22*time.Second, 2, 500*time.Millisecond)
	// A tenth of the links (the low-id end of the sorted edge list, which
	// includes the hubs) get 5% random loss just before the failure.
	for _, e := range cfg.Topology.Edges()[:2000] {
		b.Loss(14*time.Second, e.A, e.B, 0.05)
	}
	cfg.Script = b.Script()

	defer debug.SetGCPercent(debug.SetGCPercent(400))

	start := time.Now()
	res, err := Run(cfg)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Trials[0].Metrics
	t.Logf("10k-node BA churn+loss trial: wall=%.2fs delivery=%.4f events=%d churn_cycles=%d link_fails=%d random_loss=%d",
		wall.Seconds(), res.DeliveryRatio, m["scenario.events"],
		m["scenario.churn_cycles"], m["scenario.link_fails"], m["drops.random_loss"])
	accounted := m["packets.delivered"] + m["drops.no_route"] +
		m["drops.ttl_expired"] + m["drops.queue_overflow"] +
		m["drops.link_failure"] + m["drops.random_loss"] +
		m["packets.in_flight_end"]
	if accounted != m["packets.sent"] {
		t.Errorf("conservation violated under churn+loss at scale: accounted %d, sent %d", accounted, m["packets.sent"])
	}
	if m["scenario.churn_cycles"] == 0 {
		t.Error("scenario.churn_cycles = 0 — the churn window never fired")
	}
	if wall > budget {
		t.Errorf("trial took %.1fs, over the %.0fs budget — a scenario-engine scale regression", wall.Seconds(), budget.Seconds())
	}
	if out := os.Getenv("BENCH_OUT"); out != "" {
		fragment := fmt.Sprintf(`{"scenario_smoke_10k_churn_loss": {"wall_seconds": %.2f, "delivery": %.4f, "events": %d, "churn_cycles": %d, "random_loss": %d}}`+"\n",
			wall.Seconds(), res.DeliveryRatio, m["scenario.events"],
			m["scenario.churn_cycles"], m["drops.random_loss"])
		if err := os.WriteFile(out, []byte(fragment), 0o644); err != nil {
			t.Errorf("BENCH_OUT: %v", err)
		}
	}
}
