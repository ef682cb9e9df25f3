package core

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// ExperimentFlags bundles the experiment-selection flags of the convsim
// command: the mesh geometry and the -topo spec that overrides it, plus
// protocol, seed, traffic mode, shards and scenario. Set the fields to the
// desired defaults, then call Register before parsing.
type ExperimentFlags struct {
	Rows, Cols, Degree int
	// Topo is a topology spec string ("ba:n=10000,m=2", "file:as.edges",
	// ...); when non-empty it replaces the mesh geometry entirely.
	Topo     string
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

// Register declares -rows, -cols, -degree, -topo, -protocol, -seed,
// -mode, -shards and -scenario on fs, using the current field values as
// defaults.
func (e *ExperimentFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&e.Rows, "rows", e.Rows, "mesh rows")
	fs.IntVar(&e.Cols, "cols", e.Cols, "mesh columns")
	fs.IntVar(&e.Degree, "degree", e.Degree, "target interior node degree (3-16)")
	fs.StringVar(&e.Topo, "topo", e.Topo,
		"topology spec overriding the mesh, e.g. ba:n=10000,m=2 | fattree:k=8 | file:as.edges")
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

// StartProfiles serves the -cpuprofile and -memprofile flags: it starts a
// CPU profile into cpuPath, when set, and returns the function that stops
// it and then writes a heap profile into memPath, when set.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
