package topology

import (
	"slices"
	"testing"
)

func TestCSRMatchesGraph(t *testing.T) {
	g := BarabasiAlbert(300, 2, 5)
	c := NewCSR(g)
	if c.Len() != g.Len() {
		t.Fatalf("size mismatch: %d vs %d nodes", c.Len(), g.Len())
	}
	for u := 0; u < g.Len(); u++ {
		want := slices.Clone(g.Neighbors(NodeID(u)))
		slices.Sort(want)
		if row := c.Neighbors(NodeID(u)); !slices.Equal(row, want) {
			t.Fatalf("row %d = %v, want the graph's neighbors ascending %v", u, row, want)
		}
		if c.Degree(NodeID(u)) != g.Degree(NodeID(u)) {
			t.Fatalf("degree mismatch at %d", u)
		}
	}
}

func TestCSRBFSMatchesGraphBFS(t *testing.T) {
	g := GLP(400, 2, GLPDefaultP, GLPDefaultBeta, 11)
	c := NewCSR(g)
	var s BFSScratch
	for _, src := range []NodeID{0, 17, 399} {
		want := g.BFS(src)
		got := c.BFS(src, &s)
		for v := range want {
			if int(got[v]) != want[v] {
				t.Fatalf("BFS from %d: dist[%d] = %d, want %d", src, v, got[v], want[v])
			}
		}
	}
}

func TestCSRConnected(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	if NewCSR(g).Connected() {
		t.Error("disconnected graph reported connected")
	}
	g.AddEdge(1, 2)
	if !NewCSR(g).Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !NewCSR(&Graph{}).Connected() {
		t.Error("empty graph should count as connected")
	}
}

func TestEstimateDiameter(t *testing.T) {
	// A line graph's diameter is exact under double-sweep from any start.
	g := Line(50)
	c := NewCSR(g)
	if d := c.EstimateDiameter(1, 1); d != 49 {
		t.Errorf("line diameter estimate = %d, want 49", d)
	}
	// Ring of 10: diameter 5.
	r := NewCSR(Ring(10))
	if d := r.EstimateDiameter(4, 1); d != 5 {
		t.Errorf("ring diameter estimate = %d, want 5", d)
	}
	// Estimates never exceed the true diameter.
	ba := BarabasiAlbert(500, 2, 3)
	exact := ba.Diameter()
	if est := NewCSR(ba).EstimateDiameter(8, 1); est > exact || est < 1 {
		t.Errorf("BA diameter estimate %d outside (0, %d]", est, exact)
	}
	// Disconnected graphs report -1.
	d2 := NewGraph(2)
	if NewCSR(d2).EstimateDiameter(2, 1) != -1 {
		t.Error("disconnected estimate != -1")
	}
}

func TestAvgPathLengthSampled(t *testing.T) {
	g := Ring(8) // every node's distances: 1,1,2,2,3,3,4 → mean 16/7
	c := NewCSR(g)
	want := 16.0 / 7.0
	got := c.AvgPathLengthSampled(8, 1) // samples ≥ n → exact
	if diff := got - want; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("exact avg path = %v, want %v", got, want)
	}
	// Sampling a vertex-transitive graph is exact too.
	if got := c.AvgPathLengthSampled(2, 7); got != want {
		t.Errorf("sampled avg path = %v, want %v", got, want)
	}
	d2 := NewGraph(2)
	if NewCSR(d2).AvgPathLengthSampled(2, 1) != -1 {
		t.Error("disconnected sampled avg != -1")
	}
}

func TestCSRBFSScratchReuseAllocFree(t *testing.T) {
	c := NewCSR(BarabasiAlbert(1000, 2, 1))
	var s BFSScratch
	c.BFS(0, &s) // warm the scratch
	allocs := testing.AllocsPerRun(20, func() { c.BFS(3, &s) })
	if allocs != 0 {
		t.Errorf("CSR BFS with warm scratch allocates %v times per run", allocs)
	}
}
