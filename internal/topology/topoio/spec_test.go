package topoio

import (
	"path/filepath"
	"testing"

	"routeconv/internal/topology"
)

func TestParseSpecDefaults(t *testing.T) {
	sp, err := ParseSpec("ba")
	if err != nil {
		t.Fatal(err)
	}
	if sp.family != "ba" || sp.String() != "ba" {
		t.Errorf("family %q raw %q", sp.family, sp.String())
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Graph.Len() != 1024 {
		t.Errorf("default ba size = %d, want 1024", built.Graph.Len())
	}
}

func TestParseSpecOverrides(t *testing.T) {
	sp, err := ParseSpec("ba:n=100,m=3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Graph.Len() != 100 {
		t.Errorf("n = %d", built.Graph.Len())
	}
	for i := 0; i < built.Graph.Len(); i++ {
		if built.Graph.Degree(topology.NodeID(i)) < 3 {
			t.Fatalf("node %d degree < m", i)
		}
	}
	// Same spec builds the identical graph.
	again, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := built.Graph.Edges(), again.Graph.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("spec Build not deterministic")
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"nonesuch",
		"nonesuch:n=4",
		"ba:n=100,m=3,bogus=1",
		"ba:n=abc",
		"ba:n",
		"ba:m=0",
		"ba:n=3,m=5",          // n < m+1
		"ba:n=99999999",       // over maxSpecNodes
		"mesh:rows=1",         // rows < 2
		"mesh:seed=4",         // mesh takes no seed
		"hypercube:dim=40",    // over the dim cap
		"full:n=100000",       // n² edges
		"sw:n=5,k=4",          // 2k+1 > n
		"glp:p=1.5",           // p out of range
		"glp:beta=2",          // beta out of range
		"fattree:k=5",         // odd k
		"fattree:k=128",       // over the k cap
		"clos:spines=0",       // empty layer
		"random:n=10,deg=10",  // deg ≥ n
		"file:",               // no path
		"ba:n=100,m=3,seed=x", // bad seed
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
}

// TestParseSpecRejectsOverflowAndNonFinite lists specs whose parameters
// overflow when combined, or are not finite numbers. Each once passed
// ParseSpec and then panicked, hung, or built a graph from a NaN in Build;
// each must fail in ParseSpec with a diagnostic instead.
func TestParseSpecRejectsOverflowAndNonFinite(t *testing.T) {
	for _, s := range []string{
		"mesh:rows=4294967296,cols=4294967296",  // rows·cols wraps to 0
		"torus:rows=4294967296,cols=4294967296", // likewise
		"clos:spines=9223372036854775807,leaves=1",
		"clos:spines=4096,leaves=4096", // 16M links, over the edge budget
		"sw:n=5,k=4611686018427387904", // 2k+1 wraps negative
		"sw:n=64,k=2,beta=NaN",
		"sw:n=64,k=2,beta=1.5",
		"glp:n=50,beta=NaN",
		"glp:n=50,beta=-Inf",
		"glp:n=50,p=NaN",
		"glp:n=50,p=Inf",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", s)
		}
	}
}

func TestSpecAllFamiliesBuild(t *testing.T) {
	// Every non-file family builds a connected graph from its defaults.
	for fam := range specFamilies {
		sp, err := ParseSpec(fam)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		built, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if built.Graph.Len() < 2 {
			t.Errorf("%s: trivial graph", fam)
		}
		if !built.Graph.Connected() {
			t.Errorf("%s: disconnected", fam)
		}
		if len(built.Senders) == 0 || len(built.Receivers) == 0 {
			t.Errorf("%s: empty attach sets", fam)
		}
		for _, id := range built.Senders {
			if int(id) >= built.Graph.Len() {
				t.Errorf("%s: attach node %d out of range", fam, id)
			}
		}
	}
}

func TestSpecMeshAttach(t *testing.T) {
	sp, err := ParseSpec("mesh:rows=3,cols=4")
	if err != nil {
		t.Fatal(err)
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(built.Senders) != 4 || len(built.Receivers) != 4 {
		t.Fatalf("mesh attach sizes %d/%d, want 4/4", len(built.Senders), len(built.Receivers))
	}
	if built.Senders[0] != 0 || built.Receivers[0] != 8 {
		t.Errorf("mesh attach rows wrong: %v / %v", built.Senders, built.Receivers)
	}
}

func TestSpecFatTreeAttachIsEdgeLayer(t *testing.T) {
	sp, err := ParseSpec("fattree:k=4")
	if err != nil {
		t.Fatal(err)
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Edge switches have the unique minimum degree k/2, so they are the
	// default attach layer.
	if len(built.Senders) != len(ft.Edge) {
		t.Fatalf("attach size %d, want %d", len(built.Senders), len(ft.Edge))
	}
	for i, id := range built.Senders {
		if id != ft.Edge[i] {
			t.Fatalf("attach[%d] = %d, want edge switch %d", i, id, ft.Edge[i])
		}
	}
}

func TestSpecFileBuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := WriteFile(path, topology.Ring(8)); err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Graph.Len() != 8 || built.Graph.NumEdges() != 8 {
		t.Fatalf("file build: %d/%d", built.Graph.Len(), built.Graph.NumEdges())
	}
	// A ring is degree-uniform: every node is an attach candidate.
	if len(built.Senders) != 8 {
		t.Errorf("attach size %d", len(built.Senders))
	}
	// Missing file fails at Build, not Parse.
	sp2, err := ParseSpec("file:" + filepath.Join(t.TempDir(), "absent.edges"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp2.Build(); err == nil {
		t.Error("absent file built")
	}
}
