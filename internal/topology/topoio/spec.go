package topoio

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"routeconv/internal/topology"
)

// maxSpecNodes bounds generated graph sizes so a typo in a spec fails fast
// instead of exhausting memory.
const maxSpecNodes = 1 << 22

// maxClosEdges bounds a leaf-spine fabric's spines·leaves links to the
// edge count of the largest full mesh (full:n=4096).
const maxClosEdges = 4096 * 4095 / 2

// Spec is a parsed topology specification of the form
// "family:key=val,key=val" (or "file:path" / "filemap:path"). Families:
//
//	mesh:rows=7,cols=7,degree=4   Baran-style regular mesh (the paper's §5)
//	torus:rows=8,cols=8           wrap-around lattice, uniform degree 4
//	hypercube:dim=6               2^dim nodes of degree dim
//	line:n=16  ring:n=16  full:n=8
//	random:n=64,deg=4,seed=1      spanning tree plus random chords
//	sw:n=64,k=2,beta=0.1,seed=1   Watts–Strogatz small world
//	ba:n=1024,m=2,seed=1          Barabási–Albert preferential attachment
//	glp:n=1024,m=2,p=0.4695,beta=0.6447,seed=1   Bu–Towsley GLP power law
//	fattree:k=4                   k-ary fat-tree datacenter fabric
//	clos:spines=4,leaves=8        two-level leaf-spine Clos
//	file:as.edges                 edge-list import, IDs verbatim
//	filemap:as.edges              edge-list import, IDs densely remapped
//
// Every key shown is optional with the default shown. Hosts attach to the
// first/last lattice row on a mesh (as in the paper) and to the
// minimum-degree nodes of every other family — the stub leaves of a
// power-law graph, the edge switches of a fat-tree.
type Spec struct {
	raw    string
	family string
	path   string // file families
	ints   map[string]int
	p      float64 // glp / sw rewiring probability
	beta   float64
	seed   int64
}

// Built is a resolved topology: the graph plus the spec's default
// sender- and receiver-attachment sets.
type Built struct {
	Graph              *topology.Graph
	Senders, Receivers []topology.NodeID
}

// specFamilies maps each generator family to its accepted integer keys and
// defaults. Float keys (p, beta) and seed are handled separately.
var specFamilies = map[string]map[string]int{
	"mesh":      {"rows": 7, "cols": 7, "degree": 4},
	"torus":     {"rows": 8, "cols": 8},
	"hypercube": {"dim": 6},
	"line":      {"n": 16},
	"ring":      {"n": 16},
	"full":      {"n": 8},
	"random":    {"n": 64, "deg": 4},
	"sw":        {"n": 64, "k": 2},
	"ba":        {"n": 1024, "m": 2},
	"glp":       {"n": 1024, "m": 2},
	"fattree":   {"k": 4},
	"clos":      {"spines": 4, "leaves": 8},
}

// specFloats maps families to their float keys and defaults.
var specFloats = map[string]map[string]float64{
	"sw":  {"beta": 0.1},
	"glp": {"p": topology.GLPDefaultP, "beta": topology.GLPDefaultBeta},
}

// seededFamilies lists the families that accept a seed key.
var seededFamilies = map[string]bool{"random": true, "sw": true, "ba": true, "glp": true}

// ParseSpec parses and validates a topology spec string. The graph itself
// is not built (and a file: path not read) until Build.
func ParseSpec(s string) (*Spec, error) {
	raw := strings.TrimSpace(s)
	if raw == "" {
		return nil, fmt.Errorf("topoio: empty topology spec")
	}
	family, rest := raw, ""
	if i := strings.IndexByte(raw, ':'); i >= 0 {
		family, rest = raw[:i], raw[i+1:]
	}
	sp := &Spec{raw: raw, family: family, seed: 1}
	if family == "file" || family == "filemap" {
		if rest == "" {
			return nil, fmt.Errorf("topoio: %s spec needs a path, e.g. %s:as.edges", family, family)
		}
		sp.path = rest
		return sp, nil
	}
	intKeys, ok := specFamilies[family]
	if !ok {
		return nil, fmt.Errorf("topoio: unknown topology family %q in %q", family, raw)
	}
	sp.ints = make(map[string]int, len(intKeys))
	for k, v := range intKeys {
		sp.ints[k] = v
	}
	floats := specFloats[family]
	for k, v := range floats {
		switch k {
		case "p":
			sp.p = v
		case "beta":
			sp.beta = v
		}
	}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return nil, fmt.Errorf("topoio: %q: want key=value, got %q", raw, kv)
			}
			key, val := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
			switch {
			case hasKey(intKeys, key):
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("topoio: %q: bad integer %s=%q", raw, key, val)
				}
				sp.ints[key] = n
			case key == "seed" && seededFamilies[family]:
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("topoio: %q: bad seed %q", raw, val)
				}
				sp.seed = n
			case hasFloatKey(floats, key):
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("topoio: %q: bad value %s=%q", raw, key, val)
				}
				if key == "p" {
					sp.p = f
				} else {
					sp.beta = f
				}
			default:
				return nil, fmt.Errorf("topoio: %q: unknown key %q for family %s", raw, key, family)
			}
		}
	}
	if err := sp.checkRanges(); err != nil {
		return nil, err
	}
	return sp, nil
}

func hasKey(m map[string]int, k string) bool { _, ok := m[k]; return ok }

func hasFloatKey(m map[string]float64, k string) bool { _, ok := m[k]; return ok }

// checkRanges validates parameter ranges up front so Build (and the
// generators, which panic on model bugs) cannot fail on a user typo. Each
// factor is bounded before two are combined, so no product or sum can
// overflow, and a float that is not a finite number in range is rejected
// (the negated comparisons are false for NaN).
func (sp *Spec) checkRanges() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("topoio: %q: %s", sp.raw, fmt.Sprintf(format, args...))
	}
	g := sp.ints
	switch sp.family {
	case "mesh", "torus":
		// NewMesh re-validates; catch sizes here.
		if g["rows"] < 2 || g["cols"] < 2 || g["rows"] > maxSpecNodes/g["cols"] {
			return bad("%s needs 2 ≤ rows, cols with rows·cols ≤ %d", sp.family, maxSpecNodes)
		}
	case "hypercube":
		if g["dim"] < 1 || g["dim"] > 22 {
			return bad("hypercube needs 1 ≤ dim ≤ 22")
		}
	case "line", "ring", "full":
		if g["n"] < 2 || g["n"] > maxSpecNodes {
			return bad("%s needs 2 ≤ n ≤ %d", sp.family, maxSpecNodes)
		}
		if sp.family == "full" && g["n"] > 4096 {
			return bad("full needs n ≤ 4096 (n² edges)")
		}
	case "random":
		if g["n"] < 2 || g["n"] > maxSpecNodes || g["deg"] < 1 || g["deg"] >= g["n"] {
			return bad("random needs 2 ≤ n ≤ %d and 1 ≤ deg < n", maxSpecNodes)
		}
	case "sw":
		if g["n"] < 3 || g["n"] > maxSpecNodes || g["k"] < 1 || g["k"] > (g["n"]-1)/2 {
			return bad("sw needs 3 ≤ n ≤ %d and 1 ≤ k with 2k+1 ≤ n", maxSpecNodes)
		}
		if !(sp.beta >= 0 && sp.beta <= 1) {
			return bad("sw needs 0 ≤ beta ≤ 1")
		}
	case "ba":
		if g["m"] < 1 || g["n"] < g["m"]+1 || g["n"] > maxSpecNodes {
			return bad("ba needs m ≥ 1 and m+1 ≤ n ≤ %d", maxSpecNodes)
		}
	case "glp":
		if g["m"] < 1 || g["n"] < g["m"]+1 || g["n"] > maxSpecNodes {
			return bad("glp needs m ≥ 1 and m+1 ≤ n ≤ %d", maxSpecNodes)
		}
		if !(sp.p >= 0 && sp.p < 1) {
			return bad("glp needs 0 ≤ p < 1")
		}
		if !(sp.beta < 1) || math.IsInf(sp.beta, -1) {
			return bad("glp needs a finite beta < 1")
		}
	case "fattree":
		if g["k"] < 2 || g["k"]%2 != 0 || g["k"] > 64 {
			return bad("fattree needs even 2 ≤ k ≤ 64")
		}
	case "clos":
		if g["spines"] < 1 || g["leaves"] < 1 || g["spines"] > maxClosEdges/g["leaves"] ||
			g["spines"]+g["leaves"] > maxSpecNodes {
			return bad("clos needs spines, leaves ≥ 1 with spines·leaves ≤ %d and spines+leaves ≤ %d", maxClosEdges, maxSpecNodes)
		}
	}
	return nil
}

// String returns the original spec text.
func (sp *Spec) String() string { return sp.raw }

// Build constructs the topology and its default host-attachment sets.
// Only file specs can fail (I/O or parse errors).
func (sp *Spec) Build() (*Built, error) {
	g := sp.ints
	var graph *topology.Graph
	switch sp.family {
	case "mesh":
		m, err := topology.NewMesh(g["rows"], g["cols"], g["degree"])
		if err != nil {
			return nil, fmt.Errorf("topoio: %q: %w", sp.raw, err)
		}
		return &Built{Graph: m.Graph, Senders: m.FirstRow(), Receivers: m.LastRow()}, nil
	case "torus":
		graph = topology.Torus(g["rows"], g["cols"])
	case "hypercube":
		graph = topology.Hypercube(g["dim"])
	case "line":
		graph = topology.Line(g["n"])
	case "ring":
		graph = topology.Ring(g["n"])
	case "full":
		graph = topology.Full(g["n"])
	case "random":
		graph = topology.Random(g["n"], g["deg"], sp.seed)
	case "sw":
		graph = topology.SmallWorld(g["n"], g["k"], sp.beta, sp.seed)
	case "ba":
		graph = topology.BarabasiAlbert(g["n"], g["m"], sp.seed)
	case "glp":
		graph = topology.GLP(g["n"], g["m"], sp.p, sp.beta, sp.seed)
	case "fattree":
		ft, err := topology.NewFatTree(g["k"])
		if err != nil {
			return nil, fmt.Errorf("topoio: %q: %w", sp.raw, err)
		}
		graph = ft.Graph
	case "clos":
		graph = topology.LeafSpine(g["spines"], g["leaves"])
	case "file", "filemap":
		var err error
		graph, err = ReadFile(sp.path, sp.family == "filemap")
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("topoio: unknown topology family %q", sp.family)
	}
	attach := graph.MinDegreeNodes()
	return &Built{Graph: graph, Senders: attach, Receivers: attach}, nil
}
