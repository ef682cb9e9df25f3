// Package sweep is the experiment-orchestration subsystem: it expands a
// declarative sweep specification — protocols × node degrees × failure
// models, at a given trial count — into a plan of independent cells and
// executes them on a bounded worker pool with a content-addressed on-disk
// result cache, a checkpoint journal for resume-after-interrupt, context
// cancellation, live progress reporting, and a machine-readable manifest.
//
// The design follows the scenario-level decomposition argued for by the
// distributed-BGP-simulation feasibility literature: each (protocol,
// degree, failure) cell is an embarrassingly parallel unit whose result is
// a pure function of its fully-resolved core.Config, so cells are cached by
// a canonical hash of that config and never recomputed until the config —
// or the module version — changes.
package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"routeconv/internal/core"
)

// Duration is a time.Duration that marshals to and from JSON as a Go
// duration string ("3s", "1m30s"), so specs stay human-editable.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler; it accepts a duration string
// or a bare number of nanoseconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("sweep: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("sweep: bad duration %s", data)
	}
	*d = Duration(n)
	return nil
}

// FailureMode names one failure schedule of the grid: the paper's single
// permanent on-path failure by default, or any scenario script — repair,
// flaps, multiple failures (the §6 extensions) and the rest of SCENARIOS.md.
type FailureMode struct {
	// Name labels the mode in cell IDs, journals and manifests.
	Name string `json:"name"`
	// FastReroute precomputes loop-free-alternate protection.
	FastReroute bool `json:"fast_reroute,omitempty"`
	// Scenario, when non-empty, is a scenario script in the text grammar
	// (SCENARIOS.md) replacing the default schedule, "failpath @FailAt";
	// e.g. "failpath @400s restore=3s flaps=5" for a flapping link.
	Scenario string `json:"scenario,omitempty"`
}

// SingleFailure is the paper's failure model: one permanent on-path link
// failure. It is the default when a spec lists no failure modes.
func SingleFailure() FailureMode { return FailureMode{Name: "single"} }

// apply overlays the failure mode on a config.
func (f FailureMode) apply(cfg *core.Config) {
	cfg.FastReroute = f.FastReroute
	cfg.Scenario = f.Scenario
	cfg.Script = nil
}

// Spec declares a sweep: the full grid is Protocols × (Degrees ∪ Topos) ×
// Failures, each cell running Trials independent trials. The zero values of the
// optional fields inherit the paper's §5 parameters (core.DefaultConfig).
type Spec struct {
	// Name labels the sweep in manifests and progress output.
	Name string `json:"name,omitempty"`
	// Protocols lists protocol names ("rip", "dbf", "bgp", "bgp3", "ls").
	Protocols []string `json:"protocols"`
	// Degrees lists the mesh node degrees to sweep.
	Degrees []int `json:"degrees"`
	// Topos lists topology specs (topoio mini-language, e.g. "ba:n=10000,m=2"
	// or "file:as.edges") swept alongside — or instead of — Degrees. Each
	// spec becomes one cell per protocol and failure mode.
	Topos []string `json:"topos,omitempty"`
	// Trials is the per-cell trial count (paper: 100).
	Trials int `json:"trials"`
	// Seed is the base random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Flows sweeps the number of concurrent sender/receiver pairs as an
	// extra grid axis; empty inherits the base config's flow count (the
	// paper's single flow).
	Flows []int `json:"flows,omitempty"`
	// Mode selects the background-flow traffic engine for every cell:
	// "packet" (default), "fluid", or "hybrid". Flow counts beyond a few
	// thousand need "fluid" or "hybrid" to stay tractable.
	Mode string `json:"mode,omitempty"`
	// Shards splits every cell's trials over this many parallel shard
	// simulators (1 or 0 = sequential). Results are identical either way;
	// the runner divides its default worker count by the largest shard
	// count so a sweep never oversubscribes the machine.
	Shards int `json:"shards,omitempty"`
	// Failures lists the failure models; empty means the paper's single
	// permanent failure.
	Failures []FailureMode `json:"failures,omitempty"`
	// Scenarios lists scenario scripts (text grammar, SCENARIOS.md) swept
	// as additional failure modes alongside Failures: script i becomes a
	// mode named "scn<i>". Scenario becomes a grid axis next to protocol
	// and degree.
	Scenarios []string `json:"scenarios,omitempty"`
	// End shortens or extends the simulation horizon (default: the
	// paper's 800 s).
	End Duration `json:"end,omitempty"`
	// Metrics enables the obs counter layer per cell: every trial carries
	// an obs snapshot, the summed counters land in each manifest cell, and
	// cache keys change (metered and unmetered results are distinct).
	Metrics bool `json:"metrics,omitempty"`
	// Base, when non-nil, replaces core.DefaultConfig() as the per-cell
	// template (Go callers only; its Protocol, Degree, Trials, Seed and
	// failure fields are overwritten by the grid).
	Base *core.Config `json:"-"`
}

// Cell is one unit of the work plan: a fully-resolved experiment plus its
// content-addressed key.
type Cell struct {
	// Protocol and Degree locate the cell in the grid.
	Protocol core.ProtocolKind
	Degree   int
	// Topo is the cell's topology spec when it came from the Topos axis;
	// empty for degree-swept mesh cells.
	Topo string
	// Failure is the cell's failure model.
	Failure FailureMode
	// Flows is the cell's flow count when it came from the Flows axis;
	// 0 for cells inheriting the base config's count.
	Flows int
	// Config is the fully-resolved experiment configuration.
	Config core.Config
	// Key is the cell's content-addressed cache key: a hash of the
	// canonical Config and the module version.
	Key string
}

// ID returns the cell's human-readable identifier, e.g. "dbf/d4/single"
// for a mesh-degree cell or "rip/ba:n=10000,m=2/single" for a topo cell,
// with a "/fN" suffix for cells from the Flows axis.
func (c *Cell) ID() string {
	id := fmt.Sprintf("%s/d%d/%s", c.Protocol, c.Degree, c.Failure.Name)
	if c.Topo != "" {
		id = fmt.Sprintf("%s/%s/%s", c.Protocol, c.Topo, c.Failure.Name)
	}
	if c.Flows > 0 {
		id += fmt.Sprintf("/f%d", c.Flows)
	}
	return id
}

// LoadSpec reads a JSON sweep specification from a file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}

// ParseSpec decodes a JSON sweep specification, rejecting unknown fields.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: parse spec: %w", err)
	}
	return s, nil
}

// base resolves the per-cell configuration template.
func (s *Spec) base() core.Config {
	cfg := core.DefaultConfig()
	if s.Base != nil {
		cfg = *s.Base
	}
	if s.Trials > 0 {
		cfg.Trials = s.Trials
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.End > 0 {
		cfg.End = time.Duration(s.End)
	}
	if s.Metrics {
		cfg.Metrics = true
	}
	if s.Shards > 0 {
		cfg.Shards = s.Shards
	}
	return cfg
}

// Expand resolves the spec into its work plan: one Cell per point of the
// Protocols × (Degrees ∪ Topos) × Failures grid, each validated and keyed.
// The plan order is deterministic (protocol-major, then degrees before
// topos, then failure).
func (s *Spec) Expand() ([]Cell, error) {
	if len(s.Protocols) == 0 {
		return nil, fmt.Errorf("sweep: spec lists no protocols")
	}
	if len(s.Degrees) == 0 && len(s.Topos) == 0 {
		return nil, fmt.Errorf("sweep: spec lists no degrees and no topos")
	}
	failures := s.Failures
	for i, script := range s.Scenarios {
		failures = append(failures, FailureMode{Name: fmt.Sprintf("scn%d", i), Scenario: script})
	}
	if len(failures) == 0 {
		failures = []FailureMode{SingleFailure()}
	}
	for i, f := range failures {
		if f.Name == "" {
			return nil, fmt.Errorf("sweep: failure mode %d has no name", i)
		}
	}
	base := s.base()
	if s.Mode != "" {
		mode, err := core.ParseTrafficMode(s.Mode)
		if err != nil {
			return nil, err
		}
		base.Mode = mode
	}
	flowsAxis := s.Flows
	if len(flowsAxis) == 0 {
		flowsAxis = []int{0} // inherit the base config's flow count
	}
	var cells []Cell
	finish := func(c Cell) error {
		if c.Flows > 0 {
			c.Config.Flows = c.Flows
		}
		key, err := CellKey(&c.Config) // resolves and validates the config
		if err != nil {
			return fmt.Errorf("sweep: cell %s: %w", c.ID(), err)
		}
		c.Key = key
		cells = append(cells, c)
		return nil
	}
	for _, name := range s.Protocols {
		proto, err := core.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		for _, d := range s.Degrees {
			for _, f := range failures {
				for _, fl := range flowsAxis {
					cfg := base
					cfg.Protocol = proto
					cfg.Degree = d
					f.apply(&cfg)
					if err := finish(Cell{Protocol: proto, Degree: d, Failure: f, Flows: fl, Config: cfg}); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, topo := range s.Topos {
			for _, f := range failures {
				for _, fl := range flowsAxis {
					cfg := base
					cfg.Protocol = proto
					cfg.Topo = topo
					f.apply(&cfg)
					if err := finish(Cell{Protocol: proto, Topo: topo, Failure: f, Flows: fl, Config: cfg}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return cells, nil
}

// ParseDegrees accepts "3-8", "3,4,5", or a mix like "3-5,8" and returns
// the listed node degrees in order.
func ParseDegrees(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(strings.TrimSpace(lo))
			b, err2 := strconv.Atoi(strings.TrimSpace(hi))
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("sweep: bad degree range %q", part)
			}
			for d := a; d <= b; d++ {
				out = append(out, d)
			}
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad degree %q", part)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no degrees in %q", s)
	}
	return out, nil
}
