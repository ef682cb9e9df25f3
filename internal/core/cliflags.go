package core

import "flag"

// MeshFlags bundles the topology command-line flags shared by the repo's
// CLIs (convsim, tracer, topoview): the mesh geometry plus the -topo spec
// that overrides it. Set the fields to the desired defaults, then call
// Register before parsing.
type MeshFlags struct {
	Rows, Cols, Degree int
	// Topo is a topology spec string ("ba:n=10000,m=2", "file:as.edges",
	// ...); when non-empty it replaces the mesh geometry entirely.
	Topo string
}

// DefaultMeshFlags returns the paper's mesh geometry (7×7, degree 4).
func DefaultMeshFlags() MeshFlags { return MeshFlags{Rows: 7, Cols: 7, Degree: 4} }

// Register declares -rows, -cols, -degree and -topo on fs, using the
// current field values as defaults.
func (m *MeshFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&m.Rows, "rows", m.Rows, "mesh rows")
	fs.IntVar(&m.Cols, "cols", m.Cols, "mesh columns")
	fs.IntVar(&m.Degree, "degree", m.Degree, "target interior node degree (3-16)")
	fs.StringVar(&m.Topo, "topo", m.Topo,
		"topology spec overriding the mesh, e.g. ba:n=10000,m=2 | fattree:k=8 | file:as.edges")
}

// ExperimentFlags bundles the experiment-selection flags shared by convsim
// and tracer: mesh geometry plus protocol, seed, and traffic mode.
type ExperimentFlags struct {
	MeshFlags
	Protocol string
	Seed     int64
	// Mode is the background-flow traffic engine; empty means packet.
	Mode string
	// Shards is the number of parallel simulation shards; ≤1 is sequential.
	Shards int
	// Scenario is a disturbance script in the text grammar (SCENARIOS.md);
	// empty keeps the default single-link failure schedule.
	Scenario string
}

// Register declares the mesh flags plus -protocol, -seed and -mode on fs,
// using the current field values as defaults.
func (e *ExperimentFlags) Register(fs *flag.FlagSet) {
	e.MeshFlags.Register(fs)
	fs.StringVar(&e.Protocol, "protocol", e.Protocol, "routing protocol: rip, dbf, bgp, bgp3, ls")
	fs.Int64Var(&e.Seed, "seed", e.Seed, "base random seed")
	fs.StringVar(&e.Mode, "mode", e.Mode,
		"background-flow traffic engine: packet, fluid, hybrid (flow 0 is always packet-simulated)")
	fs.IntVar(&e.Shards, "shards", e.Shards,
		"parallel simulation shards per trial (conservative sync; ≤1 = sequential, results identical)")
	fs.StringVar(&e.Scenario, "scenario", e.Scenario,
		`disturbance script, e.g. "fail link 3-7 @400s; loss link 1-2 p=0.01 @410s" (see SCENARIOS.md)`)
}

// Config resolves the parsed flags into an experiment configuration:
// DefaultConfig overlaid with the flag values.
func (e *ExperimentFlags) Config() (Config, error) {
	proto, err := ParseProtocol(e.Protocol)
	if err != nil {
		return Config{}, err
	}
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Rows, cfg.Cols, cfg.Degree = e.Rows, e.Cols, e.Degree
	cfg.Topo = e.Topo
	cfg.Seed = e.Seed
	if e.Mode != "" {
		mode, err := ParseTrafficMode(e.Mode)
		if err != nil {
			return Config{}, err
		}
		cfg.Mode = mode
	}
	cfg.Shards = e.Shards
	cfg.Scenario = e.Scenario
	return cfg, nil
}
