package core

import (
	"strings"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/topology"
)

func TestCanonicalStringDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	a, err := cfg.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("canonical string not deterministic:\n%s\n%s", a, b)
	}
	if !strings.HasPrefix(a, "core.Config/v1;") {
		t.Errorf("missing version prefix: %s", a[:40])
	}
	// Every field name should be present, so a silently-skipped field
	// can't alias two distinct configs.
	for _, field := range []string{"Protocol:", "Degree:", "Trials:", "Seed:", "FailAt:", "Net:", "Vector:", "BGP:", "LS:", "Factory:nil"} {
		if !strings.Contains(a, field) {
			t.Errorf("canonical string missing %q", field)
		}
	}
}

func TestCanonicalStringSeparatesConfigs(t *testing.T) {
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.Protocol = ProtoBGP },
		func(c *Config) { c.Degree = 5 },
		func(c *Config) { c.Trials = 99 },
		func(c *Config) { c.Seed = 2 },
		func(c *Config) { c.End += time.Second },
		func(c *Config) { c.Net.QueueLimit = 21 },
		func(c *Config) { c.Vector.PoisonReverse = !c.Vector.PoisonReverse },
		func(c *Config) { c.BGP.MRAI = time.Second },
		func(c *Config) { c.Scenario = "failpath @400s; failrandom @500s" },
		func(c *Config) { c.Scenario = "failpath @400s restore=1s" },
		func(c *Config) { c.FailAt += time.Second },
	}
	want, err := base.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		got, err := cfg.CanonicalString()
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if got == want {
			t.Errorf("mutation %d did not change the canonical string", i)
		}
	}
}

func TestCanonicalStringTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = topology.Torus(4, 4)
	cfg.SenderRouters = []netsim.NodeID{0}
	cfg.ReceiverRouters = []netsim.NodeID{15}
	a, err := cfg.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a, "graph(n=16") {
		t.Errorf("topology not canonicalized: %s", a)
	}
	// A structurally identical graph canonicalizes identically.
	cfg2 := cfg
	cfg2.Topology = topology.Torus(4, 4)
	b, err := cfg2.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical topologies canonicalize differently")
	}
	cfg2.Topology = topology.Torus(4, 5)
	c, err := cfg2.CanonicalString()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different topologies canonicalize identically")
	}
}

func TestCanonicalStringRejectsFactory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Factory = func(n *netsim.Node) netsim.Protocol { return nil }
	if _, err := cfg.CanonicalString(); err == nil {
		t.Fatal("Factory override canonicalized; want error")
	}
}
