package topoio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routeconv/internal/topology"
)

func TestReadBasic(t *testing.T) {
	g, err := read(strings.NewReader("# a comment\n0 1\n1 2 10.5\n\n2 0\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes / %d edges", g.Len(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("edges missing")
	}
}

func TestReadDuplicatesIgnored(t *testing.T) {
	g, err := read(strings.NewReader("0 1\n1 0\n0 1 3\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestReadNodesDirective(t *testing.T) {
	// The header pins trailing isolated nodes.
	g, err := read(strings.NewReader("# nodes 5\n0 1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
}

// TestReadNodesHeaderCapped pins that the "# nodes N" header is bounded
// like the labels are: a two-line file declaring two billion nodes once
// ran a file: import out of memory. The remapped import ignores the
// header, so it reads the same file.
func TestReadNodesHeaderCapped(t *testing.T) {
	const in = "# nodes 2000000000\n0 1\n"
	path := filepath.Join(t.TempDir(), "huge.edges")
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := ParseSpec("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Build(); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("file: import of a 2e9-node header: err = %v, want a line 1 diagnostic", err)
	}
	if g, err := read(strings.NewReader(in), true); err != nil || g.Len() != 2 {
		t.Errorf("remapped read: %v, want a 2-node graph", err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"self-loop":    "0 0\n",
		"one field":    "7\n",
		"four fields":  "0 1 2 3\n",
		"bad id":       "0 x\n",
		"negative id":  "0 -1\n",
		"bad cost":     "0 1 cheap\n",
		"empty input":  "",
		"only comment": "# nothing\n",
		"huge id":      "0 16777216\n",
	}
	for name, in := range cases {
		if _, err := read(strings.NewReader(in), false); err == nil {
			t.Errorf("%s: read(%q, false) succeeded, want error", name, in)
		}
	}
}

// TestReadMalformedDiagnostics pins the parser's rejection messages for
// malformed edge lists: each must carry the 1-based line number of the
// offending line and name the bad token, so a multi-gigabyte snapshot
// import fails with an actionable error. Both importers share the parser,
// so the remapped path must reject identically.
func TestReadMalformedDiagnostics(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string // substrings the error must contain
	}{
		{
			name: "bad cost",
			in:   "0 1\n1 2 fast\n",
			want: []string{"line 2", `bad cost "fast"`},
		},
		{
			name: "self-loop",
			in:   "0 1\n1 2\n3 3\n",
			want: []string{"line 3", "self-loop at node 3"},
		},
		{
			name: "truncated line",
			in:   "0 1\n1\n",
			want: []string{"line 2", `want "a b [cost]"`},
		},
		{
			name: "truncated final line without newline",
			in:   "0 1\n2",
			want: []string{"line 2", `want "a b [cost]"`},
		},
		{
			name: "non-numeric id",
			in:   "0 one\n",
			want: []string{"line 1", `bad node ID "one"`},
		},
		{
			name: "negative id",
			in:   "0 1\n-2 3\n",
			want: []string{"line 2", "negative node ID -2"},
		},
		{
			name: "blank and comment lines do not shift numbering",
			in:   "# header\n\n0 1\n\n1 1\n",
			want: []string{"line 5", "self-loop"},
		},
	}
	readers := map[string]func(*strings.Reader) error{
		"verbatim": func(r *strings.Reader) error { _, err := read(r, false); return err },
		"remapped": func(r *strings.Reader) error { _, err := read(r, true); return err },
	}
	for _, tc := range cases {
		for rname, readFn := range readers {
			err := readFn(strings.NewReader(tc.in))
			if err == nil {
				t.Errorf("%s/%s: parsed %q, want error", tc.name, rname, tc.in)
				continue
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s/%s: error %q does not mention %q", tc.name, rname, err, w)
				}
			}
		}
	}
}

func TestReadRemapped(t *testing.T) {
	// Sparse AS-number-style labels densify in first-appearance order.
	g, err := read(strings.NewReader("7018 3356\n3356 701\n7018 701\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d nodes / %d edges", g.Len(), g.NumEdges())
	}
	// 7018→0, 3356→1, 701→2.
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) {
		t.Fatal("remapped edges wrong")
	}
	// Huge labels are fine when remapping.
	g2, err := read(strings.NewReader("4200000000 1\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != 2 {
		t.Fatalf("Len = %d", g2.Len())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"mesh:rows=4,cols=4,degree=4",
		"ba:n=300,m=2,seed=9",
		"glp:n=200,m=2,seed=5",
		"fattree:k=4",
		"clos:spines=3,leaves=5",
		"sw:n=40,k=2,seed=2",
	} {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		built, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		g := built.Graph
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(buf.String(), "# nodes ") {
			t.Fatalf("%s: writer did not emit the nodes header", spec)
		}
		back, err := read(bytes.NewReader(buf.Bytes()), false)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if back.Len() != g.Len() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round trip %d/%d → %d/%d", spec, g.Len(), g.NumEdges(), back.Len(), back.NumEdges())
		}
		ge, be := g.Edges(), back.Edges()
		for i := range ge {
			if ge[i] != be[i] {
				t.Fatalf("%s: edge %d differs: %v vs %v", spec, i, ge[i], be[i])
			}
		}
	}
}

func TestRoundTripIsolatedNode(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	// Node 3 is isolated; the nodes header must preserve it.
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 4 {
		t.Fatalf("Len = %d, want 4", back.Len())
	}
}

func TestReadWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.edges")
	g := topology.Ring(6)
	if err := WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 6 || back.NumEdges() != 6 {
		t.Fatalf("round trip via file: %d/%d", back.Len(), back.NumEdges())
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.edges"), false); err == nil {
		t.Error("missing file read succeeded")
	}
}
