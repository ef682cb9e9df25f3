package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/stats"
	"routeconv/internal/topology"
	"routeconv/internal/topology/partition"
	"routeconv/internal/trace"
)

// seedStride separates per-trial seeds; any large odd constant works.
const seedStride = 1_000_003

// TrialResult holds the measurements of one simulation run.
type TrialResult struct {
	// Seed is the simulator seed used for this trial.
	Seed int64
	// SenderRouter and ReceiverRouter are the mesh routers the stub hosts
	// of the first flow attached to.
	SenderRouter, ReceiverRouter netsim.NodeID
	// FailedLink is the on-path link failed at FailAt.
	FailedLink topology.Edge
	// WarmedUp reports whether the flow had a working forwarding path at
	// the failure instant (i.e. warm-up converged).
	WarmedUp bool
	// Sent and Delivered count the flow's data packets over the whole run.
	Sent, Delivered int
	// NoRouteDrops .. QueueDrops count the flow's data packets lost at or
	// after the failure, by cause (Figures 3 and 4).
	NoRouteDrops, TTLDrops, LinkFailureDrops, QueueDrops int
	// RandomLossDrops counts the flow's data packets lost at or after the
	// failure to scenario-scripted lossy links (zero without a loss
	// event).
	RandomLossDrops int
	// RoutingConvergence is the network routing convergence time (§5.4).
	RoutingConvergence time.Duration
	// ForwardingConvergence is the forwarding path convergence delay (§5.4).
	ForwardingConvergence time.Duration
	// TransientPaths counts distinct forwarding walks after the failure.
	TransientPaths int
	// LoopEscapes counts packets delivered after crossing a transient
	// forwarding loop (§5.5). Requires Config.Net.RecordHops.
	LoopEscapes int
	// Throughput is delivered packets per second, binned from SenderStart
	// (Figure 5).
	Throughput []float64
	// Delay is the mean delivery delay in seconds per bin, NaN where no
	// packets arrived (Figure 7).
	Delay []float64
	// DelayP50, DelayP95 and DelayMax summarize (in seconds) the delays of
	// packets delivered at or after the failure — Figure 7's loop-escape
	// spikes show up in the tail.
	DelayP50, DelayP95, DelayMax float64
	// ControlMessages and ControlBytes count all routing traffic.
	ControlMessages, ControlBytes uint64
	// Metrics is the trial's obs counter snapshot, populated only when
	// Config.Metrics is set (nil otherwise). Names are documented in
	// OBSERVABILITY.md.
	Metrics obs.Snapshot `json:",omitempty"`
}

// Result aggregates an experiment's trials.
type Result struct {
	Config Config
	Trials []TrialResult
	// Means over trials (Figures 3, 4 and 6).
	MeanNoRouteDrops  float64
	MeanTTLDrops      float64
	MeanLinkDrops     float64
	MeanQueueDrops    float64
	MeanRandomLoss    float64
	MeanRoutingConv   float64 // seconds
	MeanFwdConv       float64 // seconds
	MeanTransientPath float64
	// DeliveryRatio is total delivered over total sent.
	DeliveryRatio float64
	// MeanDelayP95 and MeanDelayMax average the trials' post-failure delay
	// tail statistics (seconds).
	MeanDelayP95, MeanDelayMax float64
	// MeanLoopEscapes averages packets delivered out of transient loops
	// (only populated when Config.Net.RecordHops is set).
	MeanLoopEscapes float64
	// MeanThroughput and MeanDelay are per-second series averaged across
	// trials (Figures 5 and 7).
	MeanThroughput []float64
	MeanDelay      []float64
	// WarmedUpTrials counts trials whose flow was converged at FailAt.
	WarmedUpTrials int
	// Metrics sums the trials' obs snapshots; nil unless Config.Metrics.
	Metrics obs.Snapshot `json:",omitempty"`
}

// Run executes the experiment: cfg.Trials independent simulations in
// parallel, aggregated into a Result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: workers check ctx between trials, so
// a cancelled experiment stops promptly instead of finishing its whole trial
// batch. It returns ctx.Err() when cancelled.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	// Resolve once, up front: the workers share cfg, and each trial then
	// only clones the already-built graph and installs the resolved script.
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, Trials: make([]TrialResult, cfg.Trials)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	workers := runtime.GOMAXPROCS(0)
	if cfg.Shards > 1 {
		// Each sharded trial already keeps cfg.Shards goroutines busy;
		// running GOMAXPROCS trials at once would oversubscribe the cores.
		if workers = workers / cfg.Shards; workers < 1 {
			workers = 1
		}
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // drain; the error is reported once below
				}
				tr, _, err := runTrial(&cfg, i, nil, true, nil)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("trial %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				res.Trials[i] = tr
			}
		}()
	}
dispatch:
	for i := 0; i < cfg.Trials; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.aggregate()
	return res, nil
}

// NewResult assembles a Result from per-trial measurements, computing every
// aggregate field. Callers that persist trials — the sweep subsystem's
// result cache — use it to rehydrate a Result without re-simulating.
func NewResult(cfg Config, trials []TrialResult) *Result {
	res := &Result{Config: cfg, Trials: trials}
	res.aggregate()
	return res
}

// flow is one sender/receiver pair within a trial.
type flow struct {
	srcHost, dstHost     netsim.NodeID
	srcRouter, dstRouter netsim.NodeID
}

// Trace runs a single trial of the experiment and returns both its
// measurements and the raw event collector (route changes, path history,
// every delivery and drop) — the paper's §5.2 "analysis of the routing and
// forwarding trace files". trial selects which of the experiment's seeds
// to replay; Trace(cfg, i) reproduces trial i of Run(cfg) exactly.
func Trace(cfg Config, trial int) (TrialResult, *trace.Collector, error) {
	return TraceObserved(cfg, trial, nil)
}

// TraceObserved is Trace with an optional convergence timeline. When tl is
// non-nil the trial recorder commits its record stream there: trial_start
// (with the seed); then, instant by instant in canonical order, every
// link_down/link_up and its link_down_detected/link_up_detected,
// fib_change and fib_remove (each instant's net effect), withdrawal,
// route_flap/route_reuse, fluid_demote/fluid_absorb, node_down/node_up,
// link_loss, cost_out/cost_in and churn_start/churn_end record; and last
// the summary records fib_first_change/fib_last_change per node and
// convergence_complete, measured from the configured failure time.
// OBSERVABILITY.md documents each record's fields. Recording is passive —
// the trial's results are bit-for-bit those of Trace.
func TraceObserved(cfg Config, trial int, tl *obs.Timeline) (TrialResult, *trace.Collector, error) {
	if err := cfg.resolve(); err != nil {
		return TrialResult{}, nil, err
	}
	if trial < 0 || trial >= cfg.Trials {
		return TrialResult{}, nil, fmt.Errorf("core: trial %d out of range [0, %d)", trial, cfg.Trials)
	}
	return runTrial(&cfg, trial, tl, false, nil)
}

// runTrial builds and runs one simulation. tl, when non-nil, receives the
// trial's convergence timeline. compact makes the recorder keep no record
// stream (bulk runs never read it; on large graphs it is the dominant
// memory cost). wrap, when non-nil, wraps the recorder into the observer
// the network is given; tests use it to see the raw event stream.
func runTrial(cfg *Config, trial int, tl *obs.Timeline, compact bool, wrap func(netsim.Observer) netsim.Observer) (TrialResult, *trace.Collector, error) {
	factory, err := cfg.factory()
	if err != nil {
		return TrialResult{}, nil, err
	}
	seed := cfg.Seed + int64(trial)*seedStride
	s := sim.New(seed)

	g, senderRouters, receiverRouters, err := cfg.RouterGraph()
	if err != nil {
		return TrialResult{}, nil, err
	}
	if cfg.Topology != nil {
		g = g.Clone() // the caller's graph; each trial adds its own host nodes
	}
	meshEdges := g.Edges() // router links only; host links are added below

	// Attach one stub host pair per packet flow to random attachment
	// routers. In fluid/hybrid mode only the first flow (the measured
	// probe) gets hosts and a record; the other Flows-1 classes run
	// router-to-router through the fluid evaluator — no stub nodes, no
	// per-packet events — which is what makes millions of flows viable.
	// The attachment draws are identical across modes so the probe, the
	// failure choice, and the warm-up are mode-independent.
	nPacket := cfg.Flows
	if cfg.Mode != ModePacket && nPacket > 1 {
		nPacket = 1
	}
	flows := make([]*flow, nPacket)
	type fluidPair struct{ src, dst netsim.NodeID }
	fluidPairs := make([]fluidPair, 0, cfg.Flows-nPacket)
	var rec *trace.Collector
	for i := 0; i < cfg.Flows; i++ {
		srcRouter := senderRouters[s.Rand().Intn(len(senderRouters))]
		dstRouter := receiverRouters[s.Rand().Intn(len(receiverRouters))]
		if i >= nPacket {
			if srcRouter != dstRouter {
				fluidPairs = append(fluidPairs, fluidPair{srcRouter, dstRouter})
			}
			continue
		}
		f := &flow{srcRouter: srcRouter, dstRouter: dstRouter}
		f.srcHost = g.AddNode()
		f.dstHost = g.AddNode()
		g.AddEdge(f.srcHost, f.srcRouter)
		g.AddEdge(f.dstHost, f.dstRouter)
		if i == 0 {
			rec = trace.NewCollector(f.srcHost, f.dstHost, trace.Options{
				Seed: seed, FailAt: cfg.FailAt, Start: cfg.SenderStart, End: cfg.End,
				Interval: cfg.PacketInterval, Compact: compact, Timeline: tl,
			})
		} else {
			rec.AddFlow(f.srcHost, f.dstHost)
		}
		flows[i] = f
	}

	var observer netsim.Observer = rec
	if wrap != nil {
		observer = wrap(rec)
	}
	net := netsim.FromGraph(s, g, cfg.Net, observer)
	var flowSet *netsim.FlowSet
	if len(fluidPairs) > 0 {
		flowSet = net.AttachFlows(netsim.FlowSetConfig{
			Start:       cfg.SenderStart,
			Stop:        cfg.End,
			GuardWindow: cfg.GuardWindow,
			Hybrid:      cfg.Mode == ModeHybrid,
			Flows:       len(fluidPairs),
		})
		interval := cfg.PacketInterval
		if cfg.Traffic == TrafficOnOff {
			// The fluid evaluator models an on/off class as CBR at its
			// long-run mean rate: interval scaled by the duty cycle.
			on, off := cfg.onOffMeans()
			interval = time.Duration(int64(interval) * int64(on+off) / int64(on))
		}
		for _, p := range fluidPairs {
			flowSet.Add(p.src, p.dst, interval, cfg.PacketSize, cfg.TTL)
		}
	}
	rec.SetNetwork(net)
	if cfg.Shards > 1 {
		// Partition before protocols attach: each protocol captures its
		// node's (shard) simulator at construction.
		part := partition.Partition(topology.NewCSR(g), cfg.Shards, seed)
		net.EnableSharding(part.Assign, part.K)
	}
	for i := 0; i < net.Len(); i++ {
		node := net.Node(netsim.NodeID(i))
		node.AttachProtocol(factory(node))
	}
	if cfg.FastReroute {
		installLoopFreeAlternates(net, g)
	}
	net.Start()

	for _, f := range flows {
		src := net.Node(f.srcHost)
		switch cfg.Traffic {
		case TrafficPoisson:
			netsim.StartPoisson(src, f.dstHost, cfg.PacketInterval, cfg.PacketSize, cfg.TTL, cfg.SenderStart, cfg.End)
		case TrafficOnOff:
			on, off := cfg.onOffMeans()
			netsim.StartOnOff(src, f.dstHost, cfg.PacketInterval, on, off, cfg.PacketSize, cfg.TTL, cfg.SenderStart, cfg.End)
		default:
			netsim.StartCBR(src, f.dstHost, cfg.PacketInterval, cfg.PacketSize, cfg.TTL, cfg.SenderStart, cfg.End)
		}
	}

	// The disturbance schedule: the resolved script, by default the
	// failpath event that is the paper's §5 random on-path failure.
	primary := flows[0]
	var failedLink topology.Edge
	warmedUp := false
	runner := &scenarioRunner{
		cfg: cfg, s: s, net: net, g: g, meshEdges: meshEdges, flows: flows, rec: rec,
		failedLink: &failedLink, warmedUp: &warmedUp,
	}
	runner.install(cfg.Script)

	if net.Sharded() {
		net.RunSharded(cfg.End)
	} else {
		s.RunUntil(cfg.End)
	}
	if flowSet != nil {
		flowSet.Finish() // settle the fluid tail before reading stats
	}
	fired := s.Fired()
	if net.Sharded() {
		fired = net.FiredEvents() // control plus all shard simulators
		net.FinishSharding()
	}
	met := net.Metrics()
	met.Set(obs.EventsFired, fired)
	rec.Finish()

	arr := &rec.Arrivals
	slices.Sort(arr.PostFail)
	var snap obs.Snapshot
	if cfg.Metrics {
		snap = met.Snapshot()
	}
	return TrialResult{
		Seed:                  seed,
		SenderRouter:          primary.srcRouter,
		ReceiverRouter:        primary.dstRouter,
		FailedLink:            failedLink,
		WarmedUp:              warmedUp,
		Sent:                  int(met.Get(obs.PacketsSent)),
		Delivered:             int(met.Get(obs.PacketsDelivered)),
		NoRouteDrops:          sumFlows(rec, cfg.FailAt, netsim.DropNoRoute),
		TTLDrops:              sumFlows(rec, cfg.FailAt, netsim.DropTTLExpired),
		LinkFailureDrops:      sumFlows(rec, cfg.FailAt, netsim.DropLinkFailure),
		QueueDrops:            sumFlows(rec, cfg.FailAt, netsim.DropQueueOverflow),
		RandomLossDrops:       sumFlows(rec, cfg.FailAt, netsim.DropRandomLoss),
		RoutingConvergence:    rec.RoutingConvergence(cfg.FailAt),
		ForwardingConvergence: rec.ForwardingConvergence(cfg.FailAt),
		TransientPaths:        rec.TransientPaths(cfg.FailAt),
		LoopEscapes:           arr.LoopEscapes,
		Throughput:            arr.PerSecond.Count,
		Delay:                 arr.PerSecond.Means(),
		DelayP50:              stats.SortedPercentile(arr.PostFail, 50),
		DelayP95:              stats.SortedPercentile(arr.PostFail, 95),
		DelayMax:              stats.SortedPercentile(arr.PostFail, 100),
		ControlMessages:       met.Get(obs.ControlSent),
		ControlBytes:          met.Get(obs.ControlBytes),
		Metrics:               snap,
	}, rec, nil
}

// installLoopFreeAlternates precomputes protection next hops: for every
// (router, destination), if at least two neighbors are strictly closer to
// the destination than the router itself, the highest-ID one becomes the
// backup (the lowest is conventionally the primary). Strict downhill
// alternates can never loop, even chained.
func installLoopFreeAlternates(net *netsim.Network, g *topology.Graph) {
	for dsti := 0; dsti < g.Len(); dsti++ {
		dst := topology.NodeID(dsti)
		dist := g.BFS(dst)
		for vi := 0; vi < g.Len(); vi++ {
			v := topology.NodeID(vi)
			if v == dst || dist[v] < 0 {
				continue
			}
			var downhill []netsim.NodeID
			for _, n := range g.Neighbors(v) {
				if dist[n] >= 0 && dist[n] < dist[v] {
					downhill = append(downhill, n)
				}
			}
			if len(downhill) == 0 {
				continue
			}
			// Deflection chains along strictly-downhill backups always
			// terminate at the destination, so every downhill neighbor is a
			// valid protection entry. Prefer high IDs (protocol tie-breaks
			// favor low IDs for primaries, so those are likely the dead
			// ones) and let the forwarder skip entries with down links.
			sort.Slice(downhill, func(i, j int) bool { return downhill[i] > downhill[j] })
			net.Node(v).SetBackupRoutes(dst, downhill)
		}
	}
}

// recoverable filters failure candidates down to links whose removal
// leaves src and dst connected over the currently-up mesh links.
func recoverable(net *netsim.Network, meshEdges []topology.Edge, candidates []topology.Edge, src, dst netsim.NodeID) []topology.Edge {
	// Nodes are numbered 0..N-1 with hosts at the top; sizing by the
	// largest endpoint covers the mesh.
	maxNode := topology.NodeID(0)
	for _, e := range meshEdges {
		if e.B > maxNode {
			maxNode = e.B
		}
	}
	live := topology.NewGraph(int(maxNode) + 1)
	for _, e := range meshEdges {
		if l := net.Link(e.A, e.B); l != nil && l.Up() {
			live.AddEdge(e.A, e.B)
		}
	}
	liveEdges := live.Edges()
	out := candidates[:0]
	for _, cand := range candidates {
		trial := topology.NewGraph(live.Len())
		for _, e := range liveEdges {
			if e != cand {
				trial.AddEdge(e.A, e.B)
			}
		}
		if trial.BFS(src)[dst] >= 0 {
			out = append(out, cand)
		}
	}
	return out
}

// pathMeshLinks returns the failable links of a host-to-host walk: all its
// edges except the first and last (the host access links).
func pathMeshLinks(path []netsim.NodeID, ok bool) []topology.Edge {
	if !ok || len(path) < 4 {
		return nil
	}
	links := make([]topology.Edge, 0, len(path)-3)
	for i := 1; i+2 < len(path); i++ {
		links = append(links, topology.NewEdge(path[i], path[i+1]))
	}
	return links
}

// pathLinks returns every edge of a router-to-router path.
func pathLinks(path []topology.NodeID, ok bool) []topology.Edge {
	if !ok || len(path) < 2 {
		return nil
	}
	links := make([]topology.Edge, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		links = append(links, topology.NewEdge(path[i], path[i+1]))
	}
	return links
}

func sumFlows(rec *trace.Collector, after time.Duration, reason netsim.DropReason) int {
	n := 0
	for _, f := range rec.Flows() {
		n += f.DataDropsAfter(after, reason)
	}
	return n
}

// CI95Of returns the 95% confidence half-width of any per-trial metric's
// mean, e.g. r.CI95Of(func(t TrialResult) float64 { return float64(t.NoRouteDrops) }).
func (r *Result) CI95Of(metric func(TrialResult) float64) float64 {
	xs := make([]float64, len(r.Trials))
	for i, t := range r.Trials {
		xs[i] = metric(t)
	}
	return stats.CI95(xs)
}

// aggregate fills the Result's mean fields from its trials.
func (r *Result) aggregate() {
	n := len(r.Trials)
	if n == 0 {
		return
	}
	var sent, delivered int
	var throughputs, delays [][]float64
	for _, t := range r.Trials {
		r.MeanNoRouteDrops += float64(t.NoRouteDrops)
		r.MeanTTLDrops += float64(t.TTLDrops)
		r.MeanLinkDrops += float64(t.LinkFailureDrops)
		r.MeanQueueDrops += float64(t.QueueDrops)
		r.MeanRandomLoss += float64(t.RandomLossDrops)
		r.MeanRoutingConv += t.RoutingConvergence.Seconds()
		r.MeanFwdConv += t.ForwardingConvergence.Seconds()
		r.MeanTransientPath += float64(t.TransientPaths)
		r.MeanDelayP95 += t.DelayP95
		r.MeanDelayMax += t.DelayMax
		r.MeanLoopEscapes += float64(t.LoopEscapes)
		sent += t.Sent
		delivered += t.Delivered
		if t.WarmedUp {
			r.WarmedUpTrials++
		}
		throughputs = append(throughputs, t.Throughput)
		delays = append(delays, t.Delay)
		r.Metrics = r.Metrics.Merge(t.Metrics)
	}
	fn := float64(n)
	r.MeanNoRouteDrops /= fn
	r.MeanTTLDrops /= fn
	r.MeanLinkDrops /= fn
	r.MeanQueueDrops /= fn
	r.MeanRandomLoss /= fn
	r.MeanRoutingConv /= fn
	r.MeanFwdConv /= fn
	r.MeanTransientPath /= fn
	r.MeanDelayP95 /= fn
	r.MeanDelayMax /= fn
	r.MeanLoopEscapes /= fn
	if sent > 0 {
		r.DeliveryRatio = float64(delivered) / float64(sent)
	} else {
		r.DeliveryRatio = math.NaN()
	}
	r.MeanThroughput = stats.AverageSeries(throughputs)
	r.MeanDelay = stats.AverageSeries(delays)
}
