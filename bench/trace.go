package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/routing/dbf"
	"routeconv/internal/routing/ls"
	"routeconv/internal/routing/rip"
	"routeconv/internal/scenario"
	"routeconv/internal/sim"
	"routeconv/internal/sweep"
	"routeconv/internal/topology"
	"routeconv/internal/topology/partition"
)

// layerMetrics is every per-layer metric, in report order. Each is emitted
// for every workload; one that a workload's layers never touch reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{"sim.events_fired", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.engine_floor_s", "s"},
		{"sim.engine_share", "ratio"},
		{"netsim.packets_sent", "count"},
		{"netsim.packets_forwarded", "count"},
		{"netsim.packets_delivered", "count"},
		{"netsim.drops_total", "count"},
		{"netsim.drops_queue", "count"},
		{"netsim.delivery_ratio", "ratio"},
		{"netsim.control_sent", "count"},
		{"netsim.control_bytes", "bytes"},
		{"netsim.queue_peak", "count"},
		{"netsim.fluid_settles", "count"},
		{"netsim.fluid_demotions", "count"},
		{"netsim.fluid_reabsorptions", "count"},
		{"netsim.shard_barrier_waits", "count"},
		{"netsim.shard_cross_msgs", "count"},
		{"netsim.static_run_s", "s"},
		{"netsim.dataplane_share", "ratio"},
		{"routing.start_busy_s", "s"},
		{"routing.rx_calls", "count"},
		{"routing.rx_busy_s", "s"},
		{"routing.link_event_calls", "count"},
		{"routing.link_event_busy_s", "s"},
		{"routing.rx_share", "ratio"},
		{"routing.updates_sent", "count"},
		{"routing.updates_received", "count"},
		{"routing.withdrawals_sent", "count"},
		{"routing.floods_sent", "count"},
		{"routing.decision_runs", "count"},
		{"routing.fib_changes", "count"},
		{"routing.spf_incremental", "count"},
		{"routing.adv_skipped", "count"},
		{"routing.adv_skip_ratio", "ratio"},
	}
	for _, p := range allProtocols {
		defs = append(defs,
			metricDef{"routing." + p.String() + ".unit_ms", "ms"},
			metricDef{"routing." + p.String() + ".rx_busy_s", "s"})
	}
	return append(defs,
		metricDef{"scenario.parse_us", "us"},
		metricDef{"scenario.events", "1/trial"},
		metricDef{"scenario.link_fails", "1/trial"},
		metricDef{"scenario.node_fails", "1/trial"},
		metricDef{"scenario.churn_cycles", "1/trial"},
		metricDef{"trace.deliveries", "count"},
		metricDef{"trace.route_changes", "count"},
		metricDef{"trace.query_s", "s"},
		metricDef{"obs.timeline_records", "count"},
		metricDef{"obs.ndjson_s", "s"},
		metricDef{"obs.ndjson_bytes", "bytes"},
		metricDef{"topology.build_s", "s"},
		metricDef{"topology.csr_s", "s"},
		metricDef{"topology.partition_s", "s"},
		metricDef{"topology.nodes", "count"},
		metricDef{"topology.edges", "count"},
		metricDef{"core.run_s", "s"},
		metricDef{"core.run_self_s", "s"},
		metricDef{"core.aggregate_s", "s"},
		metricDef{"core.canon_s", "s"},
		metricDef{"sweep.cells", "count"},
		metricDef{"sweep.executed", "count"},
		metricDef{"sweep.cache_hits", "count"},
		metricDef{"sweep.cache_hit_ratio", "ratio"},
		metricDef{"sweep.expand_s", "s"},
		metricDef{"sweep.cellkey_s", "s"},
		metricDef{"sweep.cache_put_s", "s"},
		metricDef{"sweep.cache_get_s", "s"},
		metricDef{"sweep.cache_bytes", "bytes"},
		metricDef{"sweep.manifest_write_s", "s"},
		metricDef{"sweep.worker_utilization", "ratio"},
		metricDef{"bench.trace_overhead_ratio", "ratio"},
	)
}()

// span is one traced interval. The spans of one unit share its label; the
// protocol-call spans are aggregates (one per call kind and unit, covering
// the unit's interval, with the call count and the summed busy time)
// because a scale trial makes millions of calls.
type span struct {
	Name    string `json:"name"`
	Unit    string `json:"unit"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
	BusyNS  int64  `json:"busy_ns,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

// time runs fn as a span with no parent and returns its duration in seconds.
func (l *spanLog) time(name, unit string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	l.spans = append(l.spans, span{Name: name, Unit: unit, StartNS: int64(start.Sub(l.epoch)), EndNS: int64(end.Sub(l.epoch))})
	return end.Sub(start).Seconds()
}

func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// protoSpans is the busy time and call count of one node's protocol, by
// the four calls netsim makes into it. One per node, written only by the
// goroutine that runs that node, summed after the run: the sharded
// workload needs no locking.
type protoSpans struct {
	startNS, rxNS, linkNS int64
	rxCalls, linkCalls    int64
}

func (a *protoSpans) add(b protoSpans) {
	a.startNS += b.startNS
	a.rxNS += b.rxNS
	a.linkNS += b.linkNS
	a.rxCalls += b.rxCalls
	a.linkCalls += b.linkCalls
}

func (a protoSpans) busyNS() int64 { return a.startNS + a.rxNS + a.linkNS }

// spanProtocol decorates a node's real protocol with the span counters.
type spanProtocol struct {
	inner netsim.Protocol
	c     *protoSpans
}

func (p *spanProtocol) Start() {
	t := time.Now()
	p.inner.Start()
	p.c.startNS += int64(time.Since(t))
}

func (p *spanProtocol) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	t := time.Now()
	p.inner.HandleMessage(from, msg)
	p.c.rxNS += int64(time.Since(t))
	p.c.rxCalls++
}

func (p *spanProtocol) LinkDown(neighbor netsim.NodeID) {
	t := time.Now()
	p.inner.LinkDown(neighbor)
	p.c.linkNS += int64(time.Since(t))
	p.c.linkCalls++
}

func (p *spanProtocol) LinkUp(neighbor netsim.NodeID) {
	t := time.Now()
	p.inner.LinkUp(neighbor)
	p.c.linkNS += int64(time.Since(t))
	p.c.linkCalls++
}

// protocolFactory is the constructor core would pick for cfg.
func protocolFactory(cfg *core.Config) func(*netsim.Node) netsim.Protocol {
	switch cfg.Protocol {
	case core.ProtoRIP:
		return rip.Factory(cfg.Vector)
	case core.ProtoDBF:
		return dbf.Factory(cfg.Vector)
	case core.ProtoBGP:
		return bgp.Factory(cfg.BGP)
	case core.ProtoBGP3:
		return bgp.Factory(cfg.BGP3)
	default:
		return ls.Factory(cfg.LS)
	}
}

// traced returns the unit with the obs counters on and, where the entry
// point takes a Factory, the span decorator around the real protocol. The
// returned function sums the decorator's counters after the unit ran. core
// builds a single-trial unit's nodes on one goroutine, so nodes needs no
// lock.
func traced(u unit) (unit, func() protoSpans) {
	if u.kind == kindSweep {
		u.spec.Metrics = true // a Factory would make the cells uncacheable
		return u, func() protoSpans { return protoSpans{} }
	}
	var nodes []*protoSpans
	real := protocolFactory(&u.cfg)
	u.cfg.Metrics = true
	u.cfg.Factory = func(n *netsim.Node) netsim.Protocol {
		c := &protoSpans{}
		nodes = append(nodes, c)
		return &spanProtocol{inner: real(n), c: c}
	}
	return u, func() protoSpans {
		var total protoSpans
		for _, c := range nodes {
			total.add(*c)
		}
		return total
	}
}

// staticNet is a control plane that costs nothing: shortest-path FIBs
// installed when the network starts, no message ever sent, no reaction to a
// link event. A unit run with it is the data plane and the engine alone.
type staticNet struct {
	nodes   []*netsim.Node
	started bool
}

type staticProtocol struct {
	net *staticNet
}

func (p staticProtocol) Start() {
	if !p.net.started {
		p.net.started = true
		p.net.install()
	}
}
func (p staticProtocol) HandleMessage(netsim.NodeID, netsim.Message) {}
func (p staticProtocol) LinkDown(netsim.NodeID)                      {}
func (p staticProtocol) LinkUp(netsim.NodeID)                        {}

func (s *staticNet) factory(n *netsim.Node) netsim.Protocol {
	s.nodes = append(s.nodes, n)
	return staticProtocol{s}
}

// install points every node at its lowest-numbered neighbour on a shortest
// path, for every destination.
func (s *staticNet) install() {
	dist := make([]int, len(s.nodes))
	var queue []netsim.NodeID
	for _, dst := range s.nodes {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst.ID()] = 0
		queue = append(queue[:0], dst.ID())
		for len(queue) > 0 {
			v := s.nodes[queue[0]]
			queue = queue[1:]
			for _, nb := range v.Neighbors() {
				if dist[nb] < 0 {
					dist[nb] = dist[v.ID()] + 1
					queue = append(queue, nb)
				}
			}
		}
		for _, v := range s.nodes {
			for _, nb := range v.Neighbors() { // ascending IDs
				if dist[v.ID()] > 0 && dist[nb] == dist[v.ID()]-1 {
					v.SetRoute(dst.ID(), nb)
					break
				}
			}
		}
	}
}

// floorSource is one self-rescheduling source of the engine floor.
type floorSource struct {
	s     *sim.Simulator
	delay time.Duration
	left  *int64
}

func (f *floorSource) HandleEvent(int32, any) {
	if *f.left > 0 {
		*f.left--
		f.s.ScheduleHandler(f.delay, f, 0, nil)
	}
}

// floorCap bounds how many events the engine floor really fires; above it
// the time is scaled up linearly (the heap holds 4 × nodes events
// throughout, so the cost per event does not depend on how many fire).
const floorCap = 8_000_000

// engineFloor is the time a bare simulator takes to schedule and fire that
// many no-op events from 4 × nodes self-rescheduling sources: what the event
// heap alone would cost the workload.
func engineFloor(events uint64, nodes int) float64 {
	sources := 4 * nodes
	if events <= uint64(sources) {
		return 0
	}
	fire := min(events, floorCap)
	left := int64(fire) - int64(sources)
	s := sim.New(1)
	start := time.Now()
	for i := 0; i < sources; i++ {
		f := &floorSource{s: s, delay: time.Duration(i%13+1) * 100 * time.Microsecond, left: &left}
		s.ScheduleHandler(f.delay, f, 0, nil)
	}
	s.Run()
	return time.Since(start).Seconds() * float64(events) / float64(fire)
}

// unitConfigs is every experiment configuration a unit runs: its own, or
// its sweep's cells.
func unitConfigs(u unit) ([]core.Config, error) {
	if u.kind != kindSweep {
		return []core.Config{u.cfg}, nil
	}
	cells, err := u.spec.Expand()
	if err != nil {
		return nil, err
	}
	cfgs := make([]core.Config, len(cells))
	for i := range cells {
		cfgs[i] = cells[i].Config
	}
	return cfgs, nil
}

// buildTopology builds cfg's router graph the way core does: the Topo spec
// parsed and built, or the mesh.
func buildTopology(cfg core.Config) (*topology.Graph, error) {
	if cfg.Topo == "" {
		m, err := topology.NewMesh(cfg.Rows, cfg.Cols, cfg.Degree)
		if err != nil {
			return nil, err
		}
		return m.Graph, nil
	}
	err := cfg.ResolveTopology()
	return cfg.Topology, err
}

// layerPass holds the sums of the traced pass.
type layerPass struct {
	log     *spanLog
	v       map[string]float64
	snap    obs.Snapshot
	spans   protoSpans
	covered float64 // seconds of the unit intervals that protocol calls cover
	rxByProto,
	unitMSByProto map[string][]float64
	nodes  int     // largest router graph of the pass
	trials float64 // trials behind the counters
	// Σ CellOutcome.Wall, and Σ workers × Outcome.Wall, over the sweep units.
	cellWall, workerWall float64
}

func (lp *layerPass) add(name string, x float64) { lp.v[name] += x }

// conserved checks the packet conservation identity on one snapshot.
func conserved(m obs.Snapshot) bool {
	out := m["packets.delivered"] + m["packets.in_flight_end"]
	for _, k := range []string{"drops.no_route", "drops.ttl_expired", "drops.queue_overflow", "drops.link_failure", "drops.random_loss"} {
		out += m[k]
	}
	return m["packets.sent"] == out
}

// traceWorkload is the traced run: one untraced pass for the reference
// times, one traced pass for counts and protocol spans, then each layer's
// public functions called directly on the workload's inputs and outputs.
// None of its timings feed the end-to-end metrics.
func traceWorkload(w workload, seed int64, sz sizes, spansPath string) (*record, error) {
	s := newSession(w, seed, sz)
	defer s.close()
	if err := s.setup(); err != nil {
		return nil, err
	}
	lp := &layerPass{
		log:           &spanLog{epoch: time.Now()},
		v:             map[string]float64{},
		rxByProto:     map[string][]float64{},
		unitMSByProto: map[string][]float64{},
	}

	// Reference: the pass exactly as the untraced run times it.
	freshHeap()
	untracedWall := 0.0
	for _, u := range s.plan.pass {
		out := s.run(u)
		untracedWall += out.wall.Seconds()
		lp.unitMSByProto[u.proto] = append(lp.unitMSByProto[u.proto], out.wall.Seconds()*1e3)
	}

	// The traced pass. A traced unit keeps its label, so the session also
	// checks that tracing left the result hash alone.
	for _, u := range s.plan.once {
		tu, _ := traced(u)
		s.run(tu)
	}
	freshHeap()
	for i, u := range s.plan.pass {
		tu, total := traced(u)
		start := time.Now()
		out := s.env.exec(tu)
		s.check(tu, &out)
		if out.err == nil {
			lp.unit(s, i, u, &out, total(), start)
		}
		out.discard()
	}

	lp.static(s)
	if err := lp.inputs(s); err != nil {
		return nil, err
	}
	lp.derive(untracedWall)

	rec := s.record()
	rec.Traced = true
	rec.Passes, rec.Units = 1, len(s.plan.pass)
	for _, d := range layerMetrics {
		rec.Metrics[d.name] = metric{lp.v[d.name], d.unit}
	}
	if spansPath != "" {
		if err := lp.log.write(spansPath); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// unit folds one traced unit into the pass: its core.run span, the
// protocol spans under it, its counters, and the trace/obs/core/sweep
// functions called on what it returned.
func (lp *layerPass) unit(s *session, i int, u unit, out *outcome, ps protoSpans, start time.Time) {
	id := fmt.Sprintf("%s#%d", u.label, i)
	t0 := int64(start.Sub(lp.log.epoch))
	t1 := t0 + int64(out.wall)
	lp.log.spans = append(lp.log.spans, span{Name: "core.run", Unit: id, StartNS: t0, EndNS: t1})
	for _, c := range []struct {
		name        string
		count, busy int64
	}{
		{"routing.start", 0, ps.startNS},
		{"routing.rx", ps.rxCalls, ps.rxNS},
		{"routing.link_event", ps.linkCalls, ps.linkNS},
	} {
		if c.busy > 0 {
			lp.log.spans = append(lp.log.spans, span{Name: c.name, Unit: id, Parent: "core.run", StartNS: t0, EndNS: t1, Count: c.count, BusyNS: c.busy})
		}
	}
	lp.add("core.run_s", out.wall.Seconds())
	lp.spans.add(ps)
	// Shards run their nodes' calls side by side, so K shards' busy time
	// covers at least a K-th of itself of the unit's interval.
	lp.covered += float64(ps.busyNS()) / 1e9 / float64(max(1, u.cfg.Shards))
	lp.rxByProto[u.proto] = append(lp.rxByProto[u.proto], float64(ps.rxNS)/1e9)

	for j := range out.trials {
		if !conserved(out.trials[j].Metrics) {
			s.fail("unit %s trial %d: packets sent != delivered + dropped + in flight", u.label, j)
		}
	}
	// A sweep serves a cell from its cache whole or not at all, and work a
	// cached trial once counted was not done in this pass.
	if out.cached == 0 {
		lp.trials += float64(len(out.trials))
		for j := range out.trials {
			lp.snap = lp.snap.Merge(out.trials[j].Metrics)
			if peak := float64(out.trials[j].Metrics["queue.peak"]); peak > lp.v["netsim.queue_peak"] {
				lp.v["netsim.queue_peak"] = peak
			}
		}
	}

	if col := out.collector; col != nil {
		lp.add("trace.deliveries", float64(len(col.Deliveries)))
		lp.add("trace.route_changes", float64(col.NumRouteChanges()))
		failAt := u.cfg.FailAt
		lp.add("trace.query_s", lp.log.time("trace.query", id, func() {
			col.RoutingConvergence(failAt)
			col.ForwardingConvergence(failAt)
			col.TransientPaths(failAt)
			col.LoopEscapes(failAt)
		}))
		lp.add("obs.timeline_records", float64(out.timeline.Len()))
		lp.add("obs.ndjson_s", out.ndjson.Seconds())
		lp.add("obs.ndjson_bytes", float64(out.ndjsonLen))
		// The export is the tail of the unit's interval and a child of it.
		lp.log.spans = append(lp.log.spans, span{Name: "obs.ndjson", Unit: id, Parent: "core.run", StartNS: t1 - int64(out.ndjson), EndNS: t1})
		lp.covered += out.ndjson.Seconds()
	}

	if sw := out.sweep; sw != nil {
		lp.sweep(s, id, u, out)
		return
	}
	lp.add("core.aggregate_s", lp.log.time("core.aggregate", id, func() { core.NewResult(u.cfg, out.trials) }))
}

// sweep times the sweep layer's own functions on one sweep unit's cells.
func (lp *layerPass) sweep(s *session, id string, u unit, out *outcome) {
	sw := out.sweep
	lp.add("sweep.cells", float64(len(sw.Cells)))
	lp.add("sweep.executed", float64(sw.Executed))
	lp.add("sweep.cache_hits", float64(sw.CacheHits))
	for i := range sw.Cells {
		c := &sw.Cells[i]
		lp.cellWall += c.Wall.Seconds()
		lp.add("core.aggregate_s", lp.log.time("core.aggregate", id, func() { core.NewResult(c.Cell.Config, c.Result.Trials) }))
	}
	lp.workerWall += float64(min(runtime.GOMAXPROCS(0), len(sw.Cells))) * sw.Wall.Seconds()

	lp.add("sweep.expand_s", lp.log.time("sweep.expand", id, func() { u.spec.Expand() }))
	lp.add("sweep.cellkey_s", lp.log.time("sweep.cellkey", id, func() {
		for i := range sw.Cells {
			sweep.CellKey(&sw.Cells[i].Cell.Config)
		}
	}))
	dir := filepath.Join(s.env.dir, "layer")
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		s.fail("unit %s: %v", u.label, err)
		return
	}
	lp.add("sweep.cache_put_s", lp.log.time("sweep.cache_put", id, func() {
		for i := range sw.Cells {
			if err := cache.Put(sw.Cells[i].Cell.Key, sw.Cells[i].Result); err != nil {
				s.fail("unit %s: %v", u.label, err)
			}
		}
	}))
	lp.add("sweep.cache_get_s", lp.log.time("sweep.cache_get", id, func() {
		for i := range sw.Cells {
			if _, ok := cache.Get(sw.Cells[i].Cell.Key, sw.Cells[i].Cell.Config); !ok {
				s.fail("unit %s: cell %s not read back", u.label, sw.Cells[i].Cell.ID())
			}
		}
	}))
	bytes := 0.0
	files, _ := filepath.Glob(filepath.Join(cache.Dir(), "*.gob"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			bytes += float64(st.Size())
		}
	}
	lp.v["sweep.cache_bytes"] = bytes // of one populated cache, not summed over units
	// The manifest the unit wrote, written once more by the same method.
	var man sweep.Manifest
	data, err := os.ReadFile(sweepOptions(out.dir).ManifestPath)
	if err == nil {
		err = json.Unmarshal(data, &man)
	}
	if err != nil {
		s.fail("unit %s: manifest: %v", u.label, err)
		return
	}
	lp.add("sweep.manifest_write_s", lp.log.time("sweep.manifest_write", id, func() {
		if err := man.Write(filepath.Join(dir, "manifest.json")); err != nil {
			s.fail("unit %s: %v", u.label, err)
		}
	}))
}

// static runs the mesh workloads' unit list once more with the control
// plane replaced by staticNet.
func (lp *layerPass) static(s *session) {
	if first := s.plan.pass[0]; first.kind == kindSweep || first.cfg.Topo != "" {
		return
	}
	for i, u := range s.plan.pass {
		net := &staticNet{}
		u.cfg.Factory = net.factory
		out := s.env.exec(u)
		s.attempted++ // its results differ by design, so no hash check
		if out.err != nil {
			s.fail("static: %v", out.err)
			continue
		}
		t1 := int64(time.Since(lp.log.epoch))
		lp.log.spans = append(lp.log.spans, span{Name: "netsim.static_run", Unit: fmt.Sprintf("%s#%d", u.label, i), StartNS: t1 - int64(out.wall), EndNS: t1})
		lp.add("netsim.static_run_s", out.wall.Seconds())
	}
}

// inputs times the topology, scenario and canonical-config functions on
// the pass's own inputs.
func (lp *layerPass) inputs(s *session) error {
	parsed := map[string]bool{}
	for i, u := range s.plan.pass {
		id := fmt.Sprintf("%s#%d", u.label, i)
		cfgs, err := unitConfigs(u)
		if err != nil {
			return err
		}
		for j := range cfgs {
			cfg := &cfgs[j]
			var g *topology.Graph
			lp.add("topology.build_s", lp.log.time("topology.build", id, func() { g, err = buildTopology(*cfg) }))
			if err != nil {
				return err
			}
			var csr *topology.CSR
			lp.add("topology.csr_s", lp.log.time("topology.csr", id, func() { csr = topology.NewCSR(g) }))
			lp.add("topology.partition_s", lp.log.time("topology.partition", id, func() { partition.Partition(csr, 2, cfg.Seed) }))
			if i == 0 && j == 0 {
				lp.v["topology.nodes"], lp.v["topology.edges"] = float64(g.Len()), float64(g.NumEdges())
			}
			lp.nodes = max(lp.nodes, g.Len())
			lp.add("core.canon_s", lp.log.time("core.canon", id, func() { _, err = cfg.CanonicalString() }))
			if err != nil {
				return err
			}
			if text := cfg.Scenario; text != "" && !parsed[text] {
				parsed[text] = true
				const reps = 1000
				total := lp.log.time("scenario.parse", id, func() {
					for k := 0; k < reps; k++ {
						scenario.Parse(text)
					}
				})
				lp.v["scenario.parse_us"] = total / reps * 1e6
			}
		}
	}
	return nil
}

// derive turns the sums into the reported metrics.
func (lp *layerPass) derive(untracedWall float64) {
	m, v := lp.snap, lp.v
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := func(k string) float64 { return float64(m[k]) }

	v["sim.events_fired"] = c("events.fired")
	v["sim.events_per_s"] = ratio(c("events.fired"), untracedWall)
	v["sim.engine_floor_s"] = engineFloor(m["events.fired"], lp.nodes)
	v["sim.engine_share"] = ratio(v["sim.engine_floor_s"], untracedWall)

	v["netsim.packets_sent"] = c("packets.sent")
	v["netsim.packets_forwarded"] = c("packets.forwarded")
	v["netsim.packets_delivered"] = c("packets.delivered")
	v["netsim.drops_queue"] = c("drops.queue_overflow")
	v["netsim.drops_total"] = c("drops.no_route") + c("drops.ttl_expired") + c("drops.queue_overflow") + c("drops.link_failure") + c("drops.random_loss")
	v["netsim.delivery_ratio"] = ratio(c("packets.delivered"), c("packets.sent"))
	v["netsim.control_sent"] = c("control.sent")
	v["netsim.control_bytes"] = c("control.bytes")
	v["netsim.fluid_settles"] = c("fluid.settles")
	v["netsim.fluid_demotions"] = c("fluid.demotions")
	v["netsim.fluid_reabsorptions"] = c("fluid.reabsorptions")
	v["netsim.shard_barrier_waits"] = c("shard.barrier_waits")
	v["netsim.shard_cross_msgs"] = c("shard.cross_msgs")
	v["netsim.dataplane_share"] = ratio(v["netsim.static_run_s"], untracedWall)

	v["routing.start_busy_s"] = float64(lp.spans.startNS) / 1e9
	v["routing.rx_calls"] = float64(lp.spans.rxCalls)
	v["routing.rx_busy_s"] = float64(lp.spans.rxNS) / 1e9
	v["routing.link_event_calls"] = float64(lp.spans.linkCalls)
	v["routing.link_event_busy_s"] = float64(lp.spans.linkNS) / 1e9
	v["routing.rx_share"] = ratio(v["routing.rx_busy_s"], v["core.run_s"])
	v["routing.updates_sent"] = c("proto.updates.sent")
	v["routing.updates_received"] = c("proto.updates.received")
	v["routing.withdrawals_sent"] = c("proto.withdrawals.sent")
	v["routing.floods_sent"] = c("proto.floods.sent")
	v["routing.decision_runs"] = c("proto.decision_runs")
	v["routing.fib_changes"] = c("fib.changes")
	v["routing.spf_incremental"] = c("proto.spf_incremental")
	v["routing.adv_skipped"] = c("proto.adv_skipped")
	v["routing.adv_skip_ratio"] = ratio(c("proto.adv_skipped"), c("proto.updates.received"))
	for _, p := range allProtocols {
		v["routing."+p.String()+".unit_ms"] = median(lp.unitMSByProto[p.String()])
		for _, x := range lp.rxByProto[p.String()] {
			v["routing."+p.String()+".rx_busy_s"] += x
		}
	}

	// Per trial, so that a unit list of many one-event trials reads 1.
	v["scenario.events"] = ratio(c("scenario.events"), lp.trials)
	v["scenario.link_fails"] = ratio(c("scenario.link_fails"), lp.trials)
	v["scenario.node_fails"] = ratio(c("scenario.node_fails"), lp.trials)
	v["scenario.churn_cycles"] = ratio(c("scenario.churn_cycles"), lp.trials)

	v["core.run_self_s"] = v["core.run_s"] - lp.covered
	v["sweep.cache_hit_ratio"] = ratio(v["sweep.cache_hits"], v["sweep.cells"])
	v["sweep.worker_utilization"] = ratio(lp.cellWall, lp.workerWall)
	v["bench.trace_overhead_ratio"] = ratio(v["core.run_s"], untracedWall)
}
