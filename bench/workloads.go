package main

import (
	"fmt"
	"time"

	"routeconv/internal/core"
	"routeconv/internal/sweep"
)

// sizes scales every workload. fullSizes is what the benchmark measures;
// tinySizes is what bench_test.go runs to check the schema in seconds. It is
// deliberately not a command-line flag: numbers taken at another scale are
// not comparable with anything.
type sizes struct {
	full           bool // result hashes are comparable with expected.json
	paperDegrees   []int
	paperSeeds     int
	paperWarm      int // warm-up units
	baNodes        int
	hybridNodes    int
	hybridFlows    int
	fwdFlows       int
	fwdEnd         time.Duration
	fwdSeeds       int
	churnProtocols []core.ProtocolKind
	churnSeeds     int
	churnWarm      int
	sweepProtocols []string
	sweepDegrees   []int
	sweepTrials    int
	sweepWarm      int // warm-cache units per pass, and warm-up units
}

var fullSizes = sizes{
	full:           true,
	paperDegrees:   []int{3, 4, 6},
	paperSeeds:     8,
	paperWarm:      25,
	baNodes:        4000,
	hybridNodes:    2000,
	hybridFlows:    1_000_000,
	fwdFlows:       40,
	fwdEnd:         450 * time.Second,
	fwdSeeds:       1,
	churnProtocols: allProtocols,
	churnSeeds:     10,
	churnWarm:      5,
	sweepProtocols: []string{"rip", "dbf", "bgp", "bgp3"},
	sweepDegrees:   []int{3, 4, 5, 6, 8},
	sweepTrials:    10,
	sweepWarm:      20,
}

var tinySizes = sizes{
	paperDegrees:   []int{4},
	paperSeeds:     1,
	paperWarm:      1,
	baNodes:        300,
	hybridNodes:    300,
	hybridFlows:    1000,
	fwdFlows:       4,
	fwdEnd:         405 * time.Second,
	fwdSeeds:       1,
	churnProtocols: []core.ProtocolKind{core.ProtoDBF},
	churnSeeds:     1,
	churnWarm:      1,
	sweepProtocols: []string{"rip", "dbf"},
	sweepDegrees:   []int{4},
	sweepTrials:    2,
	sweepWarm:      2,
}

// allProtocols is the protocol axis of the mesh workloads, in the order the
// per-protocol layer metrics are reported.
var allProtocols = []core.ProtocolKind{core.ProtoRIP, core.ProtoDBF, core.ProtoBGP, core.ProtoBGP3, core.ProtoLS}

// churnScript is the churn49 disturbance schedule. No two adjacent nodes
// are ever down together, so a fix to overlapping node recovery (ROADMAP
// item 0) cannot change this workload's results.
const churnScript = "failpath @400s; fail node 24 @420s; recover node 24 @450s; " +
	"loss link 10-11 p=0.05 @405s; flap link 17-18 every 4s x10 @460s; " +
	"churn links rate=1/s down=5s @500s..760s"

// unitKind names the top-level entry point a unit calls.
type unitKind int

const (
	kindRun   unitKind = iota // core.Run with Trials=1
	kindTrace                 // core.TraceObserved + Timeline.WriteNDJSON
	kindSweep                 // sweep.Run
)

// unit is one call into a top-level entry point: the closed loop's request.
// Topologies and scripts stay spec strings inside cfg so that generating
// and parsing them is paid inside the timed call, as a CLI user pays it.
type unit struct {
	label string
	proto string // protocol name for per-protocol layer metrics; "" for sweeps
	kind  unitKind
	cfg   core.Config // kindRun, kindTrace
	spec  sweep.Spec  // kindSweep
	// cold makes a sweep unit run in a fresh empty directory each time it
	// executes; otherwise it runs in the workload's one cache directory,
	// where the populate unit simulates every cell and later ones hit.
	cold, populate bool
	// mustWarm marks trials on a generated graph, which must report a
	// converged warm-up (WarmedUpTrials == 1) to count as correct.
	mustWarm bool
}

// plan is a workload's inputs: once is run in the first set-up only (it
// fills the directory the later units read), warm is run untimed in every
// set-up, pass is the timed unit list (repeated while the run's time
// lasts), and verify is run once afterwards — reference units that must
// reproduce the result hash of the pass unit with the same label.
type plan struct {
	once, warm, pass, verify []unit
}

// workload is one named set of inputs, made from the seed alone.
type workload struct {
	name  string
	why   string
	build func(seed int64, sz sizes) plan
}

// scaleConfig is the internet-scale RIP trial (the parameters of
// scaleSmokeConfig in internal/core/scale_test.go) on a BA graph of n nodes.
//
// The graph and the trial are seed 1 whatever the workload seed. One scale
// trial is one graph, one probe flow and one failed link, and its cost is a
// property of those: over workload seeds 11–20 the hybrid trial took 2.9 to
// 23.9 s and the sharded one allocated 892 to 1313 MB. A benchmark run
// cannot average over enough of them, so these workloads are one fixed
// trial each and the seed varies the 49-node workloads, which run tens to
// hundreds of trials per pass.
func scaleConfig(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = core.ProtoRIP
	cfg.Topo = fmt.Sprintf("ba:n=%d,m=2,seed=1", n)
	cfg.Trials = 1
	cfg.Seed = 1
	cfg.SenderStart = 12 * time.Second
	cfg.FailAt = 15 * time.Second
	cfg.End = 25 * time.Second
	cfg.Vector.PeriodicInterval = 600 * time.Second
	cfg.Vector.PeriodicJitter = time.Second
	cfg.Vector.DampMin = 500 * time.Millisecond
	cfg.Vector.DampMax = time.Second
	cfg.Vector.MaxEntries = 5000
	cfg.Vector.Infinity = 24
	return cfg
}

// meshUnits is the protocol × degree × seed grid on the paper's 7×7 mesh;
// edit adjusts the paper defaults per workload.
func meshUnits(kind unitKind, protocols []core.ProtocolKind, degrees []int, seed int64, seeds int, edit func(*core.Config)) []unit {
	var us []unit
	for _, p := range protocols {
		for _, d := range degrees {
			for s := 0; s < seeds; s++ {
				cfg := core.DefaultConfig()
				cfg.Protocol = p
				cfg.Degree = d
				cfg.Trials = 1
				cfg.Seed = seed + int64(s)
				if edit != nil {
					edit(&cfg)
				}
				us = append(us, unit{
					label: fmt.Sprintf("%s/d%d/s%d", p, d, cfg.Seed),
					proto: p.String(), kind: kind, cfg: cfg,
				})
			}
		}
	}
	return us
}

// scalePlan is the plan of the single-trial scale workloads: one warm-up
// run of the trial, then the trial repeated.
func scalePlan(label string, cfg core.Config) plan {
	u := unit{label: label, proto: "rip", kind: kindRun, cfg: cfg, mustWarm: true}
	return plan{warm: []unit{u}, pass: []unit{u}}
}

func sweepSpec(seed int64, sz sizes) sweep.Spec {
	return sweep.Spec{
		Name:      "figsweep",
		Protocols: sz.sweepProtocols,
		Degrees:   sz.sweepDegrees,
		Trials:    sz.sweepTrials,
		Seed:      seed,
	}
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same
// eight in the same order.
var workloads = []workload{
	{
		name: "paper49",
		why:  "the paper's own 49-node trial, all five protocols: sim, netsim and routing share the time, so a scale-only change must show no change here",
		build: func(seed int64, sz sizes) plan {
			pass := meshUnits(kindRun, allProtocols, sz.paperDegrees, seed, sz.paperSeeds, nil)
			return plan{warm: pass[:min(sz.paperWarm, len(pass))], pass: pass}
		},
	},
	{
		name: "ba4k-rip",
		why:  "internet-scale RIP trial on a 4000-node BA graph: routing/rip and Burst table work plus GC dominate, the event heap is idle",
		build: func(seed int64, sz sizes) plan {
			return scalePlan("rip/ba", scaleConfig(sz.baNodes))
		},
	},
	{
		name: "ba4k-rip-shards2",
		why:  "the same trial over two shard simulators: window barriers and rewind-replay; its wall_s over ba4k-rip's is the sharding verdict",
		build: func(seed int64, sz sizes) plan {
			cfg := scaleConfig(sz.baNodes)
			p := scalePlan("rip/ba", cfg)
			p.verify = p.pass // the sequential trial is the reference
			cfg.Shards = 2
			sharded := scalePlan("rip/ba", cfg)
			p.warm, p.pass = sharded.warm, sharded.pass
			return p
		},
	},
	{
		name: "hybrid-1m",
		why:  "one million background flows through the fluid engine on a 2000-node graph: settles and demotions dominate, the control plane is small",
		build: func(seed int64, sz sizes) plan {
			cfg := scaleConfig(sz.hybridNodes)
			cfg.Flows = sz.hybridFlows
			cfg.Mode = core.ModeHybrid
			cfg.GuardWindow = 500 * time.Millisecond
			cfg.PacketInterval = 2 * time.Second
			return scalePlan("rip/ba/hybrid", cfg)
		},
	},
	{
		name: "fwd-mesh49",
		why:  "40 packet flows overloading the mesh links: the event heap and the forwarding, queue and drop path dominate, routing is idle",
		build: func(seed int64, sz sizes) plan {
			pass := meshUnits(kindRun, []core.ProtocolKind{core.ProtoDBF, core.ProtoLS}, []int{4}, seed, sz.fwdSeeds, func(cfg *core.Config) {
				cfg.Flows = sz.fwdFlows
				cfg.PacketInterval = 5 * time.Millisecond
				cfg.End = sz.fwdEnd
			})
			return plan{warm: pass[:1], pass: pass}
		},
	},
	{
		name: "churn49",
		why:  "a scripted storm of ~250 link failures traced to a timeline: scenario executor, repeated decision runs, full trace collector, NDJSON export",
		build: func(seed int64, sz sizes) plan {
			pass := meshUnits(kindTrace, sz.churnProtocols, []int{4}, seed, sz.churnSeeds, func(cfg *core.Config) {
				cfg.Scenario = churnScript
			})
			return plan{warm: pass[:min(sz.churnWarm, len(pass))], pass: pass}
		},
	},
	{
		name: "figsweep-cold",
		why:  "a figure sweep into an empty cache, the only workload on every core: cell pool, trial pool, key hashing, gob cache writes, journal, manifest",
		build: func(seed int64, sz sizes) plan {
			spec := sweepSpec(seed, sz)
			// The warm-up is the first protocol's cells only: enough to grow
			// the heap and touch the file system without tripling the run.
			first := spec
			first.Protocols = spec.Protocols[:1]
			return plan{
				warm: []unit{{label: "sweep/" + first.Protocols[0], kind: kindSweep, spec: first, cold: true}},
				pass: []unit{{label: "sweep", kind: kindSweep, spec: spec, cold: true}},
			}
		},
	},
	{
		name: "figsweep-warm",
		why:  "the same sweep served from the populated cache: canonical hashing, gob cache reads, re-aggregation; moves opposite to figsweep-cold on a format change",
		build: func(seed int64, sz sizes) plan {
			u := unit{label: "sweep", kind: kindSweep, spec: sweepSpec(seed, sz)}
			fill := u
			fill.populate = true
			p := plan{once: []unit{fill}}
			for i := 0; i < sz.sweepWarm; i++ {
				p.warm = append(p.warm, u)
				p.pass = append(p.pass, u)
			}
			return p
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
