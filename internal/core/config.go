// Package core is the study harness — the paper's primary contribution. It
// assembles a mesh topology with stub sender/receiver routers, attaches one
// of the routing protocols to every node, injects a link failure on the
// flow's forwarding path, and measures packet delivery and convergence:
// the quantities behind Figures 3–7 of the paper.
package core

import (
	"fmt"
	"math"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/routing/dbf"
	"routeconv/internal/routing/ls"
	"routeconv/internal/routing/rip"
	"routeconv/internal/scenario"
	"routeconv/internal/topology"
	"routeconv/internal/topology/topoio"
)

// TrafficPattern selects the flow's packet arrival process.
type TrafficPattern int

// Traffic patterns. The paper uses constant bit rate only; the others are
// workload-sensitivity extensions.
const (
	// TrafficCBR sends a packet every PacketInterval (the paper's §5
	// workload). It is the zero value's meaning.
	TrafficCBR TrafficPattern = iota
	// TrafficPoisson sends with exponential inter-arrival times of mean
	// PacketInterval.
	TrafficPoisson
	// TrafficOnOff alternates exponential ON bursts (packets every
	// PacketInterval) with exponential OFF silences.
	TrafficOnOff
)

// String implements fmt.Stringer.
func (p TrafficPattern) String() string {
	switch p {
	case TrafficCBR:
		return "cbr"
	case TrafficPoisson:
		return "poisson"
	case TrafficOnOff:
		return "onoff"
	default:
		return fmt.Sprintf("TrafficPattern(%d)", int(p))
	}
}

// TrafficMode selects the engine that simulates background flows (every
// flow after the first; the first flow — the paper's measured probe — is
// always packet-simulated end to end).
type TrafficMode int

// Traffic engine modes.
const (
	// ModePacket simulates every flow packet-by-packet (the zero value:
	// the paper's setup and the only mode prior to the hybrid engine).
	ModePacket TrafficMode = iota
	// ModeFluid accounts background flows analytically at every epoch,
	// including the convergence transient (fastest, least faithful).
	ModeFluid
	// ModeHybrid accounts background flows analytically on quiescent
	// epochs but demotes flows whose path crosses a FIB or link change to
	// real packet sources for a guard window (see GuardWindow).
	ModeHybrid
)

// String implements fmt.Stringer.
func (m TrafficMode) String() string {
	switch m {
	case ModePacket:
		return "packet"
	case ModeFluid:
		return "fluid"
	case ModeHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("TrafficMode(%d)", int(m))
	}
}

// ParseTrafficMode converts a mode name as printed by String back to its
// value.
func ParseTrafficMode(s string) (TrafficMode, error) {
	for _, m := range []TrafficMode{ModePacket, ModeFluid, ModeHybrid} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown traffic mode %q", s)
}

// ProtocolKind selects the routing protocol under study.
type ProtocolKind int

// The protocols of the paper's §3 (plus the link-state extension of §6's
// future work).
const (
	// ProtoRIP is RIP (RFC 2453-style distance vector).
	ProtoRIP ProtocolKind = iota + 1
	// ProtoDBF is the Distributed Bellman-Ford variant with per-neighbor
	// vector caches.
	ProtoDBF
	// ProtoBGP is path-vector BGP with the standard 30 s MRAI.
	ProtoBGP
	// ProtoBGP3 is the paper's specially parameterized BGP with a 3 s MRAI.
	ProtoBGP3
	// ProtoLS is a link-state (SPF) protocol — the paper's stated future
	// work, included as an extension.
	ProtoLS
)

// Protocols lists the paper's four protocols in presentation order.
func Protocols() []ProtocolKind { return []ProtocolKind{ProtoRIP, ProtoDBF, ProtoBGP, ProtoBGP3} }

// String implements fmt.Stringer.
func (k ProtocolKind) String() string {
	switch k {
	case ProtoRIP:
		return "rip"
	case ProtoDBF:
		return "dbf"
	case ProtoBGP:
		return "bgp"
	case ProtoBGP3:
		return "bgp3"
	case ProtoLS:
		return "ls"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(k))
	}
}

// ParseProtocol converts a protocol name as printed by String back to its
// kind.
func ParseProtocol(s string) (ProtocolKind, error) {
	for _, k := range []ProtocolKind{ProtoRIP, ProtoDBF, ProtoBGP, ProtoBGP3, ProtoLS} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown protocol %q", s)
}

// Config describes one experiment: a protocol on a mesh of a given degree,
// with a traffic flow and a failure schedule, repeated over independent
// trials.
type Config struct {
	// Protocol is the routing protocol attached to every router.
	Protocol ProtocolKind
	// Rows, Cols, Degree describe the mesh (§5: 7×7, interior degree
	// 3–16).
	Rows, Cols, Degree int
	// Topo, when non-empty, selects the topology by spec string — a
	// generator family with parameters ("ba:n=10000,m=2", "fattree:k=8")
	// or an edge-list file ("file:as.edges"); see topoio.ParseSpec for the
	// full grammar. ResolveTopology expands it into Topology plus default
	// SenderRouters/ReceiverRouters (explicitly set lists win), so the
	// canonical config — and thus sweep cache keys — depends only on the
	// resulting graph, never on the spec text. Mutually exclusive with a
	// non-nil Topology.
	Topo string
	// Topology, when non-nil, replaces the mesh entirely: the experiment
	// runs on this graph (e.g. a torus, hypercube, or small-world network)
	// and Rows/Cols/Degree are ignored. SenderRouters and ReceiverRouters
	// must then list the routers the stub hosts may attach to. The graph
	// type is internal, so callers outside this module select a graph
	// through Topo.
	Topology                       *topology.Graph
	SenderRouters, ReceiverRouters []netsim.NodeID
	// Trials is the number of independent runs to aggregate (paper: 100).
	Trials int
	// Seed makes the whole experiment reproducible; trial i uses a seed
	// derived from Seed and i.
	Seed int64
	// SenderStart is when the constant-rate flow begins (paper: 390 s).
	SenderStart time.Duration
	// FailAt is the time of the default schedule, "failpath @FailAt": when
	// it fails one link on the flow's forwarding path (paper: 400 s). A
	// Scenario script replaces it; measurements count from the script's
	// own failure (Anchor).
	FailAt time.Duration
	// End is the end of the simulation (paper: 800 s).
	End time.Duration
	// PacketInterval spaces the flow's packets (paper: 20 pkt/s → 50 ms).
	// For TrafficPoisson it is the mean inter-arrival time; for TrafficOnOff
	// it is the in-burst spacing.
	PacketInterval time.Duration
	// Traffic selects the flow's arrival process. The zero value means
	// TrafficCBR (the paper's constant-rate workload).
	Traffic TrafficPattern
	// OnMean and OffMean set TrafficOnOff's mean burst and silence
	// durations; zero values default to one second each (onOffMeans).
	OnMean, OffMean time.Duration
	// PacketSize is the data packet size in bytes.
	PacketSize int
	// TTL is the data packets' initial hop budget (paper: 127).
	TTL int
	// Flows is the number of sender/receiver pairs (paper: 1; >1 is the
	// §6 future-work extension).
	Flows int
	// Mode selects the background-flow traffic engine. The first flow is
	// always a packet-simulated probe with stub hosts and a collector; in
	// ModeFluid/ModeHybrid the remaining Flows-1 classes run
	// router-to-router through the fluid evaluator, which is what makes
	// millions of flows per trial tractable.
	Mode TrafficMode
	// GuardWindow is how long a hybrid-mode flow stays demoted to
	// packet-level simulation after a forwarding change on its path.
	// Zero defaults to one second.
	GuardWindow time.Duration
	// FastReroute precomputes loop-free-alternate protection next hops at
	// every router (the paper's related work [1], [27]): packets deflect
	// to the backup the instant the primary's link is down, before any
	// protocol reaction. An extension; off in the paper's setup.
	FastReroute bool
	// Scenario is the trial's disturbance script in the scenario text
	// grammar ("fail link 3-7 @400s; loss link 1-2 p=0.01 @410s"; full
	// reference in SCENARIOS.md). Empty means the paper's single on-path
	// failure, "failpath @FailAt". Resolving a config rewrites the script
	// in its canonical text (Script.String), so the canonical config — and
	// thus sweep cache keys — depends only on the event list: a default
	// config and one carrying "failpath @400s" resolve alike.
	Scenario string
	// Metrics exports the obs counters: each trial carries a
	// TrialResult.Metrics snapshot (and the Result sums them). The counters
	// always run — they are the ledger Sent, Delivered and the control
	// totals are read from — and counting never changes simulation
	// outcomes; the flag only decides whether the snapshot is built. It is
	// part of the canonical config, so sweep cache keys differ between
	// exported and unexported runs.
	Metrics bool
	// Shards partitions the router topology into this many shards, each
	// running its nodes' events on a private simulator goroutine under
	// conservative lockstep windows (the link propagation delay is the
	// lookahead). 0 or 1 selects the sequential engine. Trial results are
	// bit-for-bit identical across shard counts — per-node and per-source
	// random streams make the schedule shard-invariant — so Shards is an
	// execution knob, not part of the experiment: it is excluded from the
	// canonical config and thus from sweep cache keys.
	Shards int
	// Net holds the physical link parameters.
	Net netsim.Config
	// Vector parameterizes RIP and DBF.
	Vector routing.VectorConfig
	// BGP parameterizes ProtoBGP; BGP3 parameterizes ProtoBGP3.
	BGP, BGP3 bgp.Config
	// LS parameterizes ProtoLS.
	LS ls.Config
	// Factory overrides the protocol constructor entirely when non-nil
	// (for ablations and custom protocols); Protocol is then only a label.
	Factory func(*netsim.Node) netsim.Protocol
}

// DefaultConfig returns the paper's §5 experiment parameters with the DBF
// protocol selected.
func DefaultConfig() Config {
	return Config{
		Protocol:       ProtoDBF,
		Rows:           7,
		Cols:           7,
		Degree:         4,
		Trials:         10,
		Seed:           1,
		SenderStart:    390 * time.Second,
		FailAt:         400 * time.Second,
		End:            800 * time.Second,
		PacketInterval: 50 * time.Millisecond,
		PacketSize:     1000,
		TTL:            127,
		Flows:          1,
		Net:            netsim.DefaultConfig(),
		Vector:         routing.DefaultVectorConfig(),
		BGP:            bgp.DefaultConfig(),
		BGP3:           bgp.BGP3Config(),
		LS:             ls.DefaultConfig(),
	}
}

// ResolveTopology expands a Topo spec string into the Topology graph plus
// its default SenderRouters/ReceiverRouters (fields that are already set
// are kept), then clears Topo: the resolved config — and everything
// derived from it, canonical hash included — depends only on the resulting
// graph. It is a no-op when Topo is empty, and an error when both Topo and
// Topology are set.
func (c *Config) ResolveTopology() error {
	if c.Topo == "" {
		return nil
	}
	if c.Topology != nil {
		return fmt.Errorf("core: Topo %q and Topology are mutually exclusive", c.Topo)
	}
	spec, err := topoio.ParseSpec(c.Topo)
	if err != nil {
		return err
	}
	built, err := spec.Build()
	if err != nil {
		return err
	}
	c.Topology = built.Graph
	if len(c.SenderRouters) == 0 {
		c.SenderRouters = built.Senders
	}
	if len(c.ReceiverRouters) == 0 {
		c.ReceiverRouters = built.Receivers
	}
	c.Topo = ""
	return nil
}

// RouterGraph returns the router topology a trial runs on, with its
// sender and receiver attachment routers: the resolved Topology, or else
// the paper's mesh with senders on its first row and receivers on its
// last. The Topology graph is returned as is, not cloned.
func (c *Config) RouterGraph() (g *topology.Graph, senders, receivers []netsim.NodeID, err error) {
	if c.Topology != nil {
		return c.Topology, c.SenderRouters, c.ReceiverRouters, nil
	}
	mesh, err := topology.NewMesh(c.Rows, c.Cols, c.Degree)
	if err != nil {
		return nil, nil, nil, err
	}
	return mesh.Graph, mesh.FirstRow(), mesh.LastRow(), nil
}

// script parses the trial's disturbance schedule: the Scenario text, or —
// when it is empty — the paper's single on-path failure, failpath @FailAt.
func (c *Config) script() (*scenario.Script, error) {
	if c.Scenario != "" {
		return scenario.Parse(c.Scenario)
	}
	return &scenario.Script{Events: []scenario.Event{{At: c.FailAt, Kind: scenario.KindFailPath, Node: -1}}}, nil
}

// Anchor returns the instant every measurement of a trial counts from: the
// script's anchor (scenario.Script.Anchor), FailAt for the default one, or
// SenderStart for a script that neither fails nor costs out anything (and
// for one that does not parse, which Validate reports).
func (c *Config) Anchor() time.Duration {
	sc, err := c.script()
	if err != nil {
		return c.SenderStart
	}
	return sc.Anchor(c.SenderStart)
}

// resolve is the one preparation step before a config is run or
// canonicalized: build any Topo spec, parse the disturbance schedule,
// validate, and store the schedule back as canonical text. It returns the
// parsed schedule, which is what a trial runs.
func (c *Config) resolve() (*scenario.Script, error) {
	if err := c.ResolveTopology(); err != nil {
		return nil, err
	}
	sc, err := c.script()
	if err != nil {
		return nil, err
	}
	if err := c.validate(sc); err != nil {
		return nil, err
	}
	// A script of comments only has no events and renders as "", which
	// would read back as the default schedule; its own text keeps it apart.
	if len(sc.Events) > 0 {
		c.Scenario = sc.String()
	}
	return sc, nil
}

// onOffMeans returns the on/off burst and silence means with their
// one-second defaults applied. The defaults are resolved here, at run time,
// not stored into the Config, whose fields feed the cache keys.
func (c *Config) onOffMeans() (on, off time.Duration) {
	on, off = c.OnMean, c.OffMean
	if on <= 0 {
		on = time.Second
	}
	if off <= 0 {
		off = time.Second
	}
	return on, off
}

// meanInterval returns the long-run mean spacing of a flow's packets:
// PacketInterval, scaled by the duty cycle for on/off traffic.
func (c *Config) meanInterval() time.Duration {
	if c.Traffic != TrafficOnOff {
		return c.PacketInterval
	}
	on, off := c.onOffMeans()
	return time.Duration(int64(c.PacketInterval) * int64(on+off) / int64(on))
}

// packets returns the capacity to reserve for a flow's packets over a span
// of time. A CBR flow sends exactly one per PacketInterval. A random one
// gets its mean count plus four standard deviations: n + 4√n for Poisson
// arrivals, and for on/off the count of an alternating renewal process —
// exponential bursts of mean a and silences of mean b spend a share
// a/(a+b) of a span T on, with variance 2T·a²b²/(a+b)³, sending one packet
// per PacketInterval while on.
func (c *Config) packets(span time.Duration) int {
	n := int(span/c.meanInterval()) + 1
	switch c.Traffic {
	case TrafficPoisson:
		n += int(4 * math.Sqrt(float64(n)))
	case TrafficOnOff:
		on, off := c.onOffMeans()
		a, b := on.Seconds(), off.Seconds()
		sd := math.Sqrt(2*span.Seconds()*a*a*b*b/math.Pow(a+b, 3)) / c.PacketInterval.Seconds()
		n += int(4 * sd)
	}
	return n
}

// Validate reports the first problem with the configuration, or nil. It
// is also the check of the Scenario script: its grammar, and its events
// against the horizon and topology.
func (c *Config) Validate() error {
	sc, err := c.script()
	if err != nil {
		return err
	}
	return c.validate(sc)
}

// validate is Validate with the schedule already parsed.
func (c *Config) validate(script *scenario.Script) error {
	if c.Topo != "" {
		if c.Topology != nil {
			return fmt.Errorf("core: Topo %q and Topology are mutually exclusive", c.Topo)
		}
		// Cheap spec check; graph-level checks run after ResolveTopology.
		if _, err := topoio.ParseSpec(c.Topo); err != nil {
			return err
		}
	}
	switch at := script.Anchor(c.SenderStart); {
	case c.Trials < 1:
		return fmt.Errorf("core: Trials = %d, need ≥ 1", c.Trials)
	case c.Flows < 1:
		return fmt.Errorf("core: Flows = %d, need ≥ 1", c.Flows)
	case c.Topology == nil && c.Topo == "" && (c.Rows < 2 || c.Cols < 2):
		return fmt.Errorf("core: mesh %d×%d too small", c.Rows, c.Cols)
	case at < c.SenderStart:
		return fmt.Errorf("core: measurement anchor %v (the script's first failure) before SenderStart %v", at, c.SenderStart)
	case c.SenderStart >= c.End:
		return fmt.Errorf("core: SenderStart %v not before End %v", c.SenderStart, c.End)
	case c.PacketInterval <= 0:
		return fmt.Errorf("core: PacketInterval must be positive")
	case c.Traffic < TrafficCBR || c.Traffic > TrafficOnOff:
		return fmt.Errorf("core: unknown traffic pattern %d", int(c.Traffic))
	case c.OnMean < 0 || c.OffMean < 0:
		return fmt.Errorf("core: OnMean/OffMean must not be negative")
	case c.TTL < 1:
		return fmt.Errorf("core: TTL must be ≥ 1")
	case c.Mode < ModePacket || c.Mode > ModeHybrid:
		return fmt.Errorf("core: unknown traffic mode %d", int(c.Mode))
	case c.GuardWindow < 0:
		return fmt.Errorf("core: GuardWindow must not be negative")
	case c.Shards < 0:
		return fmt.Errorf("core: Shards must not be negative")
	case c.usesVector() && c.Vector.MaxEntries < 1:
		return fmt.Errorf("core: Vector.MaxEntries = %d, need ≥ 1", c.Vector.MaxEntries)
	case c.usesVector() && (c.Vector.Infinity < 1 || c.Vector.Infinity > math.MaxInt16):
		return fmt.Errorf("core: Vector.Infinity = %d outside [1, %d]", c.Vector.Infinity, math.MaxInt16)
	}
	if c.Factory == nil {
		if _, err := c.factory(); err != nil {
			return err
		}
	}
	if c.Topology != nil {
		if len(c.SenderRouters) == 0 || len(c.ReceiverRouters) == 0 {
			return fmt.Errorf("core: custom Topology requires SenderRouters and ReceiverRouters")
		}
		for _, id := range append(append([]netsim.NodeID{}, c.SenderRouters...), c.ReceiverRouters...) {
			if int(id) < 0 || int(id) >= c.Topology.Len() {
				return fmt.Errorf("core: attachment router %d outside topology (%d nodes)", id, c.Topology.Len())
			}
		}
		for id := 0; id < c.Topology.Len(); id++ {
			if d := c.Topology.Degree(topology.NodeID(id)); d > netsim.MaxDegree {
				return fmt.Errorf("core: node %d has %d neighbors, over the %d a 16-bit forwarding rank can name", id, d, netsim.MaxDegree)
			}
		}
		if !c.Topology.Connected() {
			return fmt.Errorf("core: custom Topology is disconnected")
		}
	}
	// The disturbance schedule, against the horizon and — when the script
	// names links or nodes and the topology is known — the actual link and
	// node set. A resolved Topology has the graph; the default mesh is
	// cheap to build; an unresolved Topo spec defers reference checks to
	// the resolve step's post-ResolveTopology validation (building the
	// spec here could read files).
	g := c.Topology
	if g == nil && c.Topo == "" && script.NamesTopology() {
		if mesh, err := topology.NewMesh(c.Rows, c.Cols, c.Degree); err == nil {
			g = mesh.Graph
		}
	}
	return script.Validate(c.End, g)
}

// usesVector reports whether the run's protocol is built from c.Vector.
func (c *Config) usesVector() bool {
	return c.Factory == nil && (c.Protocol == ProtoRIP || c.Protocol == ProtoDBF)
}

// factory resolves the protocol constructor for this configuration.
func (c *Config) factory() (func(*netsim.Node) netsim.Protocol, error) {
	if c.Factory != nil {
		return c.Factory, nil
	}
	switch c.Protocol {
	case ProtoRIP:
		return rip.Factory(c.Vector), nil
	case ProtoDBF:
		return dbf.Factory(c.Vector), nil
	case ProtoBGP:
		return bgp.Factory(c.BGP), nil
	case ProtoBGP3:
		return bgp.Factory(c.BGP3), nil
	case ProtoLS:
		return ls.Factory(c.LS), nil
	default:
		return nil, fmt.Errorf("core: unknown protocol kind %d", int(c.Protocol))
	}
}
