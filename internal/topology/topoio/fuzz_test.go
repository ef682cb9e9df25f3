package topoio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"routeconv/internal/topology"
)

// FuzzTopoSpec runs the -topo mini-language on inputs nobody wrote.
// ParseSpec must never panic, and an accepted generator spec whose
// integer parameters are all small must also Build without panicking or
// hanging. The committed corpus holds overflowing products and sums
// (mesh, torus, clos, sw) and NaN or infinite p and beta, which once
// passed ParseSpec and then panicked, hung, or built from a NaN.
func FuzzTopoSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(text)
		if err != nil || sp.path != "" {
			return // file specs read the file system; FuzzEdgeList covers the parser
		}
		for k, v := range sp.ints {
			// A hypercube's size is exponential in dim: 2^32 nodes is no
			// unit of fuzzing work, so its budget is dim ≤ 12.
			if v > 32 || (k == "dim" && v > 12) {
				return
			}
		}
		if _, err := sp.Build(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Build rejects: %v", text, err)
		}
	})
}

// FuzzEdgeList runs the edge-list importer, verbatim and remapped, on
// inputs nobody wrote. It must never panic, and a graph either import
// reads back must survive Write∘Read unchanged. The committed corpus holds a
// "# nodes" header far past the verbatim-ID cap, which once ran the
// verbatim import out of memory.
func FuzzEdgeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		if g, err := read(strings.NewReader(text), true); err == nil {
			roundTrip(t, text, g)
		}
		// Verbatim IDs and node counts up to the cap are legal and allocate
		// a node each: keep the accepted ones to four digits. Larger
		// numbers past the cap still run, since they must be rejected.
		if allocatesMany(text) {
			return
		}
		if g, err := read(strings.NewReader(text), false); err == nil {
			roundTrip(t, text, g)
		}
	})
}

// roundTrip fails the test unless g survives Write∘Read unchanged.
func roundTrip(t *testing.T, text string, g *topology.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf, false)
	if err != nil {
		t.Fatalf("%q: the written graph does not read back: %v", text, err)
	}
	if back.Len() != g.Len() || !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Fatalf("%q: Write∘Read changed the graph: %d nodes %v, then %d nodes %v",
			text, g.Len(), g.Edges(), back.Len(), back.Edges())
	}
}

// allocatesMany reports whether s holds a number in [10⁴, maxVerbatimID]:
// a legal verbatim node ID or node count the importer allocates a node
// per unit of.
func allocatesMany(s string) bool {
	for i := 0; i < len(s); {
		if s[i] < '0' || s[i] > '9' {
			i++
			continue
		}
		v := 0
		for ; i < len(s) && s[i] >= '0' && s[i] <= '9'; i++ {
			if v <= maxVerbatimID { // saturate: past the cap is past the cap
				v = v*10 + int(s[i]-'0')
			}
		}
		if v >= 10000 && v <= maxVerbatimID {
			return true
		}
	}
	return false
}
