// Package routeconv studies packet delivery performance during routing
// convergence, reproducing Pei, Wang, Massey, Wu & Zhang, "A Study of
// Packet Delivery Performance during Routing Convergence" (DSN 2003).
//
// The library bundles a deterministic discrete-event packet-level network
// simulator, four routing protocols from the paper (RIP, Distributed
// Bellman-Ford, BGP and the fast-MRAI BGP3) plus a link-state extension,
// the Baran-style regular mesh topology family plus internet-scale
// generators (power-law AS graphs, fat-tree/Clos fabrics, edge-list
// import, all selected by a Config.Topo spec string), and an experiment
// harness that reproduces every figure of the paper's evaluation.
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
// RunSweep repeats that across protocols and node degrees, and its
// SweepResult renders the paper's Figures 2–7 as tables. See cmd/sweep
// (-figures) for the full reproduction driver, and this package's examples
// for the paper's transient loops, route flap damping and scripted
// disturbances.
package routeconv

import (
	"context"

	"routeconv/internal/core"
	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/routing/ls"
	"routeconv/internal/sweep"
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

// Config describes one experiment; see DefaultConfig for the paper's
// parameters. Its disturbance schedule is the Scenario script, in the
// text grammar of SCENARIOS.md ("failpath @400s restore=3s flaps=5;
// failrandom @405s"); empty means the paper's single on-path failure.
// Validate checks the script, like every other field, before any
// simulation runs.
type Config = core.Config

// ModeHybrid, set on Config.Mode, runs every flow after the first,
// measured probe through the fluid engine: analytically while the network
// is quiescent, demoted to packet simulation for Config.GuardWindow after
// a forwarding change on its path. It makes millions of flows per trial
// tractable. Packet simulation of every flow is Mode's zero value.
const ModeHybrid = core.ModeHybrid

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

// NodeID identifies a node (router or stub host) in a simulated network.
type NodeID = netsim.NodeID

// DefaultConfig returns the paper's §5 experiment parameters: a 7×7 mesh,
// 10 Mbps / 1 ms links with 20-packet queues and 50 ms failure detection, a
// 20 packets-per-second flow starting at 390 s, a single on-path link
// failure at 400 s, and an 800 s horizon.
func DefaultConfig() Config { return core.DefaultConfig() }

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
	return SweepConfig{Base: base, Degrees: degrees, Protocols: core.Protocols()}
}

// SweepResult is a completed sweep: Cells holds every cell's Result in
// plan order, and its methods render the summary and Figures 2–7.
type SweepResult = sweep.Outcome

// RunSweep executes a protocol × degree grid on the sweep orchestrator
// (the engine behind cmd/sweep), uncached: cells run in
// parallel on GOMAXPROCS workers, and each cell's Result is exactly what
// Run returns for Base with that protocol and degree. Base's disturbance
// schedule (Scenario) and FastReroute apply to every cell; a Base with a
// Factory override is rejected, because cells are keyed by their
// configuration's content. progress (optional) receives the
// orchestrator's status lines — one per completed cell
// ("dbf/d4/single  ran  …"), a periodic summary and a closing total — from
// several goroutines, possibly at once.
func RunSweep(sc SweepConfig, progress func(string)) (*SweepResult, error) {
	spec := sweep.Spec{Base: &sc.Base, Degrees: sc.Degrees}
	for _, p := range sc.Protocols {
		spec.Protocols = append(spec.Protocols, p.String())
	}
	return sweep.Run(context.Background(), spec, sweep.Options{Progress: progress})
}

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
