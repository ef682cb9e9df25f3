package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshInteriorDegree(t *testing.T) {
	for degree := 3; degree <= 16; degree++ {
		m, err := NewMesh(9, 9, degree)
		if err != nil {
			t.Fatalf("NewMesh(9,9,%d): %v", degree, err)
		}
		for id := NodeID(0); int(id) < m.Len(); id++ {
			if !interior(m, id) {
				continue
			}
			if got := m.Degree(id); got != degree {
				r, c := pos(m, id)
				t.Errorf("degree %d: interior node (%d,%d) has degree %d", degree, r, c, got)
			}
		}
	}
}

func TestMeshConnected(t *testing.T) {
	for degree := 3; degree <= 16; degree++ {
		m, err := NewMesh(7, 7, degree)
		if degree > 8 {
			// 7×7 supports all degrees; only tiny lattices are rejected.
			if err != nil {
				t.Fatalf("NewMesh(7,7,%d): %v", degree, err)
			}
		}
		if err != nil {
			t.Fatalf("NewMesh(7,7,%d): %v", degree, err)
		}
		if !m.Connected() {
			t.Errorf("degree-%d mesh is disconnected", degree)
		}
	}
}

func TestMeshDegree4IsLattice(t *testing.T) {
	m, err := NewMesh(5, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A 5×5 lattice has 2*5*4 = 40 edges.
	if m.NumEdges() != 40 {
		t.Errorf("degree-4 5×5 mesh has %d edges, want 40", m.NumEdges())
	}
	if m.HasEdge(m.ID(0, 0), m.ID(1, 1)) {
		t.Error("degree-4 mesh has a diagonal edge")
	}
	if !m.HasEdge(m.ID(2, 2), m.ID(2, 3)) || !m.HasEdge(m.ID(2, 2), m.ID(3, 2)) {
		t.Error("degree-4 mesh is missing lattice edges")
	}
}

func TestMeshDegree6HasDiagonals(t *testing.T) {
	m, err := NewMesh(5, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !m.HasEdge(m.ID(1, 1), m.ID(2, 2)) {
		t.Error("degree-6 mesh is missing the ↘ diagonal")
	}
	if m.HasEdge(m.ID(1, 1), m.ID(2, 0)) {
		t.Error("degree-6 mesh unexpectedly has the ↙ diagonal")
	}
}

func TestMeshDegree8IsKingMoves(t *testing.T) {
	m, err := NewMesh(5, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	center := m.ID(2, 2)
	if m.Degree(center) != 8 {
		t.Fatalf("center degree = %d, want 8", m.Degree(center))
	}
	for _, n := range []NodeID{m.ID(1, 1), m.ID(1, 2), m.ID(1, 3), m.ID(2, 1), m.ID(2, 3), m.ID(3, 1), m.ID(3, 2), m.ID(3, 3)} {
		if !m.HasEdge(center, n) {
			t.Errorf("degree-8 mesh missing king move %d→%d", center, n)
		}
	}
}

func TestMeshErrors(t *testing.T) {
	cases := []struct {
		rows, cols, degree int
	}{
		{1, 5, 4},                 // too few rows
		{5, 1, 4},                 // too few cols
		{5, 5, 2},                 // degree too small
		{5, 5, MaxMeshDegree + 1}, // degree too large
		{4, 4, 10},                // high degree on a tiny lattice
	}
	for _, c := range cases {
		if _, err := NewMesh(c.rows, c.cols, c.degree); err == nil {
			t.Errorf("NewMesh(%d,%d,%d) succeeded, want error", c.rows, c.cols, c.degree)
		}
	}
}

func TestMeshIDPosRoundTrip(t *testing.T) {
	m, err := NewMesh(4, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	for id := NodeID(0); int(id) < m.Len(); id++ {
		r, c := pos(m, id)
		if m.ID(r, c) != id {
			t.Fatalf("Pos/ID round trip failed for %d", id)
		}
	}
}

func TestMeshRows(t *testing.T) {
	m, err := NewMesh(4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	first, last := m.FirstRow(), m.LastRow()
	if len(first) != 3 || len(last) != 3 {
		t.Fatalf("row lengths %d, %d; want 3, 3", len(first), len(last))
	}
	if first[0] != 0 || first[2] != 2 {
		t.Errorf("FirstRow = %v", first)
	}
	if last[0] != m.ID(3, 0) || last[2] != m.ID(3, 2) {
		t.Errorf("LastRow = %v", last)
	}
}

func TestMeshDeterministic(t *testing.T) {
	a, err := NewMesh(7, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMesh(7, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("mesh construction not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("mesh construction not deterministic")
		}
	}
}

// Property: for every supported degree on lattices of varied size, interior
// degree is exact, no node exceeds the target, and the mesh is connected.
func TestPropertyMeshInvariants(t *testing.T) {
	f := func(rows, cols, deg uint8) bool {
		r := 5 + int(rows)%6 // 5..10
		c := 5 + int(cols)%6 // 5..10
		d := 3 + int(deg)%14 // 3..16
		m, err := NewMesh(r, c, d)
		if err != nil {
			return false
		}
		if !m.Connected() {
			return false
		}
		for id := NodeID(0); int(id) < m.Len(); id++ {
			got := m.Degree(id)
			if got > d {
				return false
			}
			if interior(m, id) && got != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Every mesh node has degree ≥ 2, so no single link failure can strand a
// router (the corner fix for odd-degree brick walls).
func TestMeshMinimumDegreeTwo(t *testing.T) {
	for degree := 3; degree <= 16; degree++ {
		for _, dims := range [][2]int{{7, 7}, {5, 9}, {6, 6}} {
			m, err := NewMesh(dims[0], dims[1], degree)
			if err != nil {
				t.Fatal(err)
			}
			for id := NodeID(0); int(id) < m.Len(); id++ {
				if m.Degree(id) < 2 {
					r, c := pos(m, id)
					t.Errorf("degree %d mesh %v: node (%d,%d) has degree %d", degree, dims, r, c, m.Degree(id))
				}
			}
		}
	}
}

// Property: mesh diameter shrinks (weakly) as degree grows, for a fixed
// lattice — the paper's richer-connectivity premise (§4.4).
func TestMeshDiameterShrinksWithDegree(t *testing.T) {
	prev := 1 << 30
	for degree := 3; degree <= 12; degree++ {
		m, err := NewMesh(7, 7, degree)
		if err != nil {
			t.Fatal(err)
		}
		d := m.Diameter()
		if d > prev {
			t.Errorf("diameter grew from %d to %d at degree %d", prev, d, degree)
		}
		prev = d
	}
}

// interior reports whether the node is far enough from the border to have
// the full target degree.
func interior(m *Mesh, id NodeID) bool {
	margin := 1
	if m.TargetDeg > 8 {
		margin = 2
	}
	r, c := pos(m, id)
	return r >= margin && r < m.Rows-margin && c >= margin && c < m.Cols-margin
}

// pos returns the lattice position of a node: Mesh numbers row by row.
func pos(m *Mesh, id NodeID) (r, c int) { return int(id) / m.Cols, int(id) % m.Cols }
