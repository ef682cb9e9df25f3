package core

import (
	"path/filepath"
	"strings"
	"testing"

	"routeconv/internal/netsim"
	"routeconv/internal/topology"
	"routeconv/internal/topology/topoio"
)

func TestResolveTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = "ba:n=64,m=2,seed=3"
	if err := cfg.ResolveTopology(); err != nil {
		t.Fatal(err)
	}
	if cfg.Topo != "" {
		t.Error("Topo not cleared after resolution")
	}
	if cfg.Topology == nil || cfg.Topology.Len() != 64 {
		t.Fatalf("Topology not built: %v", cfg.Topology)
	}
	if len(cfg.SenderRouters) == 0 || len(cfg.ReceiverRouters) == 0 {
		t.Fatal("attach lists not filled")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("resolved config invalid: %v", err)
	}
	// Resolution is idempotent on an already-resolved config.
	if err := cfg.ResolveTopology(); err != nil {
		t.Fatal(err)
	}
}

func TestResolveTopologyExplicitAttachWins(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = "ring:n=10"
	cfg.SenderRouters = []netsim.NodeID{1}
	cfg.ReceiverRouters = []netsim.NodeID{6}
	if err := cfg.ResolveTopology(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.SenderRouters) != 1 || cfg.SenderRouters[0] != 1 {
		t.Errorf("explicit senders overwritten: %v", cfg.SenderRouters)
	}
	if len(cfg.ReceiverRouters) != 1 || cfg.ReceiverRouters[0] != 6 {
		t.Errorf("explicit receivers overwritten: %v", cfg.ReceiverRouters)
	}
}

func TestValidateRejectsTopoPlusTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = "ring:n=10"
	cfg.Topology = topology.Ring(10)
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted both Topo and Topology")
	}
	if err := cfg.ResolveTopology(); err == nil {
		t.Error("ResolveTopology accepted both Topo and Topology")
	}
}

func TestValidateRejectsBadTopoSpec(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topo = "nonesuch:n=4"
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an unknown topology family")
	}
}

// TestRunTopoSpecFatTree runs the full experiment on a fat-tree stated as
// a -topo spec: resolution, host attachment to the edge layer, failure
// injection and measurement all flow through the normal Run path. DBF with
// ECMP exploits the fabric's (k/2)² equal-cost paths, so delivery stays
// near-perfect across the failure.
func TestRunTopoSpecFatTree(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoDBF
	cfg.Vector.ECMP = true
	cfg.Trials = 2
	cfg.Topo = "fattree:k=4"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmedUpTrials != cfg.Trials {
		t.Errorf("warmed up %d/%d on the fat-tree", res.WarmedUpTrials, cfg.Trials)
	}
	if res.DeliveryRatio < 0.99 {
		t.Errorf("fat-tree ECMP delivery ratio = %.3f", res.DeliveryRatio)
	}
}

// TestRunTopoSpecBA runs a link-state trial on a small power-law graph.
func TestRunTopoSpecBA(t *testing.T) {
	cfg := shortConfig()
	cfg.Protocol = ProtoLS
	cfg.Trials = 2
	cfg.Topo = "ba:n=64,m=2,seed=1"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmedUpTrials != cfg.Trials {
		t.Errorf("warmed up %d/%d on the BA graph", res.WarmedUpTrials, cfg.Trials)
	}
}

// TestTopoCanonicalEquivalence pins the cache-key contract: a config
// carrying a -topo spec and a config carrying the equivalent pre-built
// graph plus attach lists canonicalize identically, so sweep cells hit the
// same cache entry however the topology was stated.
func TestTopoCanonicalEquivalence(t *testing.T) {
	spec, err := topoio.ParseSpec("ba:n=50,m=2,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := DefaultConfig()
	a.Topo = "ba:n=50,m=2,seed=4"
	b := DefaultConfig()
	b.Topology = built.Graph
	b.SenderRouters = built.Senders
	b.ReceiverRouters = built.Receivers
	ca, err := a.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Error("spec config and pre-built config canonicalize differently")
	}
	// CanonicalString must not mutate the caller's config.
	if a.Topo == "" || a.Topology != nil {
		t.Error("CanonicalString mutated the config")
	}
	// Different seeds diverge.
	c := DefaultConfig()
	c.Topo = "ba:n=50,m=2,seed=5"
	cc, err := c.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if cc == ca {
		t.Error("different topo seeds canonicalize identically")
	}
}

// TestTopoExportImportRoundTrip is the subsystem's losslessness criterion:
// for every generator family, exporting the graph to an edge list and
// importing it back yields a config with the identical canonical hash.
func TestTopoExportImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specs := []string{
		"mesh:rows=4,cols=5,degree=4",
		"torus:rows=4,cols=4",
		"hypercube:dim=4",
		"line:n=12",
		"ring:n=12",
		"full:n=6",
		"random:n=40,deg=4,seed=2",
		"sw:n=40,k=2,seed=2",
		"ba:n=60,m=2,seed=2",
		"glp:n=60,m=2,seed=2",
		"fattree:k=4",
		"clos:spines=3,leaves=6",
	}
	for i, specText := range specs {
		spec, err := topoio.ParseSpec(specText)
		if err != nil {
			t.Fatal(err)
		}
		built, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		family, _, _ := strings.Cut(specText, ":")
		path := filepath.Join(dir, family+"-"+string(rune('a'+i))+".edges")
		if err := topoio.WriteFile(path, built.Graph); err != nil {
			t.Fatal(err)
		}

		gen := DefaultConfig()
		gen.Topo = specText
		imp := DefaultConfig()
		imp.Topo = "file:" + path
		if family == "mesh" {
			// Mesh attach rows (first/last lattice row) are not derivable
			// from the bare graph, so a mesh round-trip states them
			// explicitly on both sides.
			gen.SenderRouters = built.Senders
			gen.ReceiverRouters = built.Receivers
			imp.SenderRouters = built.Senders
			imp.ReceiverRouters = built.Receivers
		}
		cg, err := gen.CanonicalString()
		if err != nil {
			t.Fatalf("%s: %v", specText, err)
		}
		ci, err := imp.CanonicalString()
		if err != nil {
			t.Fatalf("%s: %v", specText, err)
		}
		if cg != ci {
			t.Errorf("%s: canonical hash changed across export/import round trip", specText)
		}
	}
}
