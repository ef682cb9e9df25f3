// Package routeconv studies packet delivery performance during routing
// convergence, reproducing Pei, Wang, Massey, Wu & Zhang, "A Study of
// Packet Delivery Performance during Routing Convergence" (DSN 2003).
//
// The library bundles a deterministic discrete-event packet-level network
// simulator, four routing protocols from the paper (RIP, Distributed
// Bellman-Ford, BGP and the fast-MRAI BGP3) plus a link-state extension,
// the Baran-style regular mesh topology family plus internet-scale
// generators (power-law AS graphs, fat-tree/Clos fabrics, edge-list
// import), and an experiment harness that reproduces every figure of the
// paper's evaluation.
//
// The minimal use is three lines:
//
//	cfg := routeconv.DefaultConfig()
//	cfg.Protocol = routeconv.ProtoDBF
//	result, err := routeconv.Run(cfg)
//
// Run builds a Rows×Cols mesh of the requested node degree, attaches stub
// sender/receiver routers to random first/last-row nodes, warms the routing
// protocol up, starts a 20 packets-per-second flow, fails one link on the
// flow's forwarding path, and measures drops (by cause), convergence times,
// and instantaneous throughput and delay — over cfg.Trials independent
// trials.
//
// RunSweep repeats that across protocols and node degrees and renders the
// paper's Figures 2–7 as tables. See cmd/sweep (-figures) for the full
// reproduction driver and the examples directory for runnable scenarios.
package routeconv

import (
	"context"

	"routeconv/internal/core"
	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/routing/ls"
	"routeconv/internal/scenario"
	"routeconv/internal/stats"
	"routeconv/internal/sweep"
	"routeconv/internal/topology"
)

// ProtocolKind selects the routing protocol under study.
type ProtocolKind = core.ProtocolKind

// The protocols of the paper's §3, plus the link-state extension.
const (
	// ProtoRIP is RIP (RFC 2453-style distance vector): periodic 30 s
	// full-table updates, no alternate-path state.
	ProtoRIP = core.ProtoRIP
	// ProtoDBF is Distributed Bellman-Ford: RIP plus a cache of each
	// neighbor's latest vector, giving instant path switch-over.
	ProtoDBF = core.ProtoDBF
	// ProtoBGP is path-vector BGP with the standard 30 s per-neighbor MRAI.
	ProtoBGP = core.ProtoBGP
	// ProtoBGP3 is the paper's specially parameterized BGP with a 3 s MRAI.
	ProtoBGP3 = core.ProtoBGP3
	// ProtoLS is the link-state (SPF) extension from the paper's future
	// work.
	ProtoLS = core.ProtoLS
)

// Protocols returns the paper's four protocols in presentation order.
func Protocols() []ProtocolKind { return core.Protocols() }

// TrafficPattern selects the flow's packet arrival process.
type TrafficPattern = core.TrafficPattern

// Traffic patterns: the paper's constant-rate workload plus two
// workload-sensitivity extensions.
const (
	// TrafficCBR is the paper's constant-bit-rate flow (the default).
	TrafficCBR = core.TrafficCBR
	// TrafficPoisson draws exponential inter-arrival times.
	TrafficPoisson = core.TrafficPoisson
	// TrafficOnOff alternates exponential bursts and silences.
	TrafficOnOff = core.TrafficOnOff
)

// ParseProtocol converts a name ("rip", "dbf", "bgp", "bgp3", "ls") to its
// kind.
func ParseProtocol(s string) (ProtocolKind, error) { return core.ParseProtocol(s) }

// TrafficMode selects the engine simulating background flows (every flow
// after the measured probe).
type TrafficMode = core.TrafficMode

// Traffic engine modes: per-packet simulation for every flow (the paper's
// setup), pure fluid accounting, or the hybrid that demotes flows to
// packets around forwarding changes.
const (
	ModePacket = core.ModePacket
	ModeFluid  = core.ModeFluid
	ModeHybrid = core.ModeHybrid
)

// ParseTrafficMode converts a name ("packet", "fluid", "hybrid") to its
// mode.
func ParseTrafficMode(s string) (TrafficMode, error) { return core.ParseTrafficMode(s) }

// Config describes one experiment; see DefaultConfig for the paper's
// parameters.
type Config = core.Config

// NetConfig holds the physical link parameters (rate, delay, detection
// time, queue length).
type NetConfig = netsim.Config

// VectorConfig parameterizes the distance-vector protocols (RIP, DBF).
type VectorConfig = routing.VectorConfig

// BGPConfig parameterizes the path-vector protocol (MRAI value and
// granularity).
type BGPConfig = bgp.Config

// LSConfig parameterizes the link-state extension.
type LSConfig = ls.Config

// DampingConfig parameterizes RFC 2439 route flap damping (set it on a
// BGPConfig's Damping field).
type DampingConfig = bgp.DampingConfig

// TrialResult holds the measurements of one simulation run.
type TrialResult = core.TrialResult

// Result aggregates an experiment's trials; see its Mean* fields for the
// figures' quantities.
type Result = core.Result

// SweepResult holds one Result per grid cell and renders the paper's
// figures as tables.
type SweepResult = core.SweepResult

// Table is a rendered result table; use WriteText or WriteCSV.
type Table = stats.Table

// NodeID identifies a node (router or stub host) in a simulated network.
type NodeID = netsim.NodeID

// Edge is an undirected link between two nodes.
type Edge = topology.Edge

// Graph is an undirected router topology; set it on Config.Topology (with
// SenderRouters/ReceiverRouters) to run the experiment on something other
// than the paper's mesh.
type Graph = topology.Graph

// Torus returns a rows×cols wrap-around lattice (uniform degree 4).
func Torus(rows, cols int) *Graph { return topology.Torus(rows, cols) }

// Hypercube returns the dim-dimensional hypercube (2^dim nodes of degree
// dim).
func Hypercube(dim int) *Graph { return topology.Hypercube(dim) }

// SmallWorld returns a Watts–Strogatz small-world graph: ring lattice with
// k neighbors per side, each chord rewired with probability beta.
func SmallWorld(n, k int, beta float64, seed int64) *Graph {
	return topology.SmallWorld(n, k, beta, seed)
}

// RandomTopology returns a connected random graph with roughly the given
// average degree.
func RandomTopology(n, avgDegree int, seed int64) *Graph {
	return topology.Random(n, avgDegree, seed)
}

// BarabasiAlbert returns an n-node preferential-attachment power-law graph
// with m links per new node — the classic scale-free AS-graph model.
func BarabasiAlbert(n, m int, seed int64) *Graph {
	return topology.BarabasiAlbert(n, m, seed)
}

// GLP returns an n-node generalized-linear-preference power-law graph
// (Bu–Towsley), which matches measured AS-graph degree exponents more
// closely than plain preferential attachment. Use topology.GLPDefaultP and
// topology.GLPDefaultBeta for the published parameter fit.
func GLP(n, m int, p, beta float64, seed int64) *Graph {
	return topology.GLP(n, m, p, beta, seed)
}

// FatTree is a k-ary fat-tree data-center fabric with layer membership
// exposed; its Graph field plugs into Config.Topology.
type FatTree = topology.FatTree

// NewFatTree builds the k-ary fat-tree (k even): (k/2)² cores, k pods of
// k/2 aggregation and k/2 edge switches, (k/2)² equal-cost paths between
// edge switches in different pods.
func NewFatTree(k int) (*FatTree, error) { return topology.NewFatTree(k) }

// LeafSpine returns a two-tier leaf-spine fabric: every leaf connects to
// every spine.
func LeafSpine(spines, leaves int) *Graph { return topology.LeafSpine(spines, leaves) }

// DefaultConfig returns the paper's §5 experiment parameters: a 7×7 mesh,
// 10 Mbps / 1 ms links with 20-packet queues and 50 ms failure detection, a
// 20 packets-per-second flow starting at 390 s, a single on-path link
// failure at 400 s, and an 800 s horizon.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultVectorConfig returns the RFC 2453 distance-vector parameters used
// by the paper (30 s periodic updates, 1–5 s triggered-update damping,
// split horizon with poisoned reverse, infinity 16).
func DefaultVectorConfig() VectorConfig { return routing.DefaultVectorConfig() }

// DefaultBGPConfig returns the paper's standard BGP parameters (30 s
// per-neighbor MRAI).
func DefaultBGPConfig() BGPConfig { return bgp.DefaultConfig() }

// BGP3Config returns the paper's fast-MRAI variant (3 s).
func BGP3Config() BGPConfig { return bgp.BGP3Config() }

// DefaultDampingConfig returns the RFC 2439 suggested flap-damping
// parameters (1000 per withdrawal, suppress at 2000, reuse at 750, 15 min
// half-life).
func DefaultDampingConfig() DampingConfig { return bgp.DefaultDampingConfig() }

// Run executes one experiment: cfg.Trials independent simulations,
// aggregated.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// RunContext is Run with cancellation: workers check ctx between trials,
// so a cancelled experiment stops promptly. It returns ctx.Err() when
// cancelled.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// SweepConfig describes the full evaluation grid: every protocol at every
// node degree, Base.Trials runs each. One sweep yields the data behind
// Figures 3–7.
type SweepConfig struct {
	// Base is the per-cell template; the sweep overwrites its Protocol and
	// Degree fields.
	Base Config
	// Degrees lists the mesh degrees to sweep (paper: 3–16).
	Degrees []int
	// Protocols lists the protocols to sweep (paper: RIP, DBF, BGP, BGP3).
	Protocols []ProtocolKind
}

// DefaultSweep returns the paper's full evaluation grid (all four
// protocols, degrees 3–16) at the given trial count per cell.
func DefaultSweep(trials int) SweepConfig {
	base := DefaultConfig()
	base.Trials = trials
	var degrees []int
	for d := 3; d <= 16; d++ {
		degrees = append(degrees, d)
	}
	return SweepConfig{Base: base, Degrees: degrees, Protocols: Protocols()}
}

// RunSweep executes a protocol × degree grid on the sweep orchestrator
// (the engine behind cmd/sweep), uncached: cells run in
// parallel on GOMAXPROCS workers, and each cell's Result is exactly what
// Run returns for Base with that protocol and degree. Base's disturbance
// schedule (Scenario or Script) and FastReroute apply to every cell; a
// Base with a Factory override is rejected, because cells are keyed by
// their configuration's content. progress (optional) receives the
// orchestrator's status lines — one per completed cell
// ("dbf/d4/base  ran  …"), a periodic summary and a closing total — from
// several goroutines, possibly at once.
func RunSweep(sc SweepConfig, progress func(string)) (*SweepResult, error) {
	// A sweep failure mode replaces its cells' schedule, so Base's own
	// schedule travels as the one mode, in text form.
	base := sc.Base
	if err := base.ResolveScenario(); err != nil {
		return nil, err
	}
	spec := sweep.Spec{
		Base:     &sc.Base,
		Degrees:  sc.Degrees,
		Failures: []sweep.FailureMode{{Name: "base", FastReroute: base.FastReroute, Scenario: base.Script.String()}},
	}
	for _, p := range sc.Protocols {
		spec.Protocols = append(spec.Protocols, p.String())
	}
	out, err := sweep.Run(context.Background(), spec, sweep.Options{Progress: progress})
	if err != nil {
		return nil, err
	}
	return out.SweepResult(), nil
}

// ScenarioScript is a parsed disturbance script: a time-ordered list of
// failure, repair, flap, loss, cost-out and churn events. It is the only
// form a trial's disturbances take: set it on Config.Script, or set the
// text form on Config.Scenario; a config with neither runs the paper's
// single on-path failure, "failpath @FailAt". Repairs, flaps and extra
// failures of that link are script options too
// ("failpath @400s restore=3s flaps=5; failrandom @405s"). Grammar and
// exact per-event semantics: SCENARIOS.md.
type ScenarioScript = scenario.Script

// ScenarioBuilder composes a ScenarioScript programmatically; see
// NewScenario.
type ScenarioBuilder = scenario.Builder

// ScenarioEvent is one timed disturbance in a ScenarioScript.
type ScenarioEvent = scenario.Event

// NewScenario returns an empty scenario builder. Chain event methods and
// call Script() to get the time-sorted script:
//
//	s := routeconv.NewScenario().
//		FailLink(400*time.Second, 3, 7).
//		Loss(410*time.Second, 1, 2, 0.01).
//		Script()
func NewScenario() *ScenarioBuilder { return scenario.NewBuilder() }

// ParseScenario parses the compact text grammar, e.g.
// "fail link 3-7 @400s; loss link 1-2 p=0.01 @410s". See SCENARIOS.md.
func ParseScenario(text string) (*ScenarioScript, error) { return scenario.Parse(text) }

// MetricsSnapshot is a flat metric-name → value map of the observability
// counters one trial accumulated (set Config.Metrics to collect it; see
// TrialResult.Metrics and Result.Metrics). Every name is documented in
// OBSERVABILITY.md.
type MetricsSnapshot = obs.Snapshot

// Timeline holds one trial's convergence timeline — link failures, FIB
// changes (each instant's net effect), withdrawals, flap-damping
// transitions, and the per-node first/last-change summaries — as the
// trial's recorder commits it: instant by instant in canonical order, so
// the same trial writes the same NDJSON however it is executed. The record
// schema is documented in OBSERVABILITY.md.
type Timeline = obs.Timeline

// NewTimeline returns an empty convergence timeline ready to pass to
// TraceTimeline.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// TraceTimeline re-runs one trial of the experiment with the timeline
// attached (when tl is non-nil). Recording is passive: the trial result is
// bit-for-bit the one Run computed for the same configuration and trial
// index.
func TraceTimeline(cfg Config, trial int, tl *Timeline) (TrialResult, error) {
	tr, _, err := core.TraceObserved(cfg, trial, tl)
	return tr, err
}
