package topology

import (
	"fmt"
	"math/rand"
)

// Mesh holds a Baran-style regular mesh: a rows×cols lattice augmented with
// deterministic chord-edge families so that every node away from the border
// has the same degree. This is the topology family of the paper's §5
// ("a deterministic method similar to the one used by Baran").
type Mesh struct {
	*Graph
	Rows, Cols int
	TargetDeg  int
}

// offset is one family of parallel edges: every node (r, c) is linked to
// (r+dr, c+dc) when both ends are in the lattice. A full family adds 2 to
// every interior node's degree; a "half" family adds the edges of a perfect
// matching instead, adding exactly 1.
type offset struct{ dr, dc int }

// families lists chord-edge families in the order they are layered onto the
// lattice as the target degree grows: lattice edges first, then the two
// diagonals, then distance-2 chords. Twelve families support interior
// degrees up to 24.
var families = []offset{
	{0, 1},  // horizontal lattice
	{1, 0},  // vertical lattice
	{1, 1},  // diagonal ↘
	{1, -1}, // diagonal ↙
	{0, 2},  // horizontal skip
	{2, 0},  // vertical skip
	{2, 2},  // long diagonal ↘
	{2, -2}, // long diagonal ↙
	{1, 2},  // knight-like chords
	{2, 1},
	{1, -2},
	{2, -1},
}

// MaxMeshDegree is the largest target degree NewMesh supports: two per
// chord-edge family.
const MaxMeshDegree = 24

// NewMesh builds a rows×cols mesh whose interior nodes all have degree
// degree. Nodes are numbered row-major: id = r*cols + c. It returns an
// error when the requested degree cannot be realized.
func NewMesh(rows, cols, degree int) (*Mesh, error) {
	switch {
	case rows < 2 || cols < 2:
		return nil, fmt.Errorf("topology: mesh needs at least 2×2, got %d×%d", rows, cols)
	case degree < 3:
		return nil, fmt.Errorf("topology: mesh degree must be ≥ 3, got %d", degree)
	case degree > MaxMeshDegree:
		return nil, fmt.Errorf("topology: mesh degree must be ≤ %d, got %d", MaxMeshDegree, degree)
	case degree > 8 && (rows < 5 || cols < 5):
		return nil, fmt.Errorf("topology: degree %d needs at least a 5×5 lattice", degree)
	}
	m := &Mesh{Graph: NewGraph(rows * cols), Rows: rows, Cols: cols, TargetDeg: degree}
	full := degree / 2
	if full > len(families) {
		full = len(families)
	}
	for i := 0; i < full; i++ {
		m.addFamily(families[i], false)
	}
	if degree%2 == 1 {
		m.addFamily(families[full], true)
	}
	m.fixCorners()
	return m, nil
}

// fixCorners raises any degree-≤1 node (brick-wall corners at odd target
// degrees) to degree ≥ 2 by adding its missing lattice edge, so that no
// single link failure can strand a router — the paper's failures are
// always recoverable.
func (m *Mesh) fixCorners() {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			id := m.ID(r, c)
			if m.Degree(id) >= 2 {
				continue
			}
			for _, o := range []offset{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				r2, c2 := r+o.dr, c+o.dc
				if r2 < 0 || r2 >= m.Rows || c2 < 0 || c2 >= m.Cols {
					continue
				}
				if !m.HasEdge(id, m.ID(r2, c2)) {
					m.AddEdge(id, m.ID(r2, c2))
					break
				}
			}
		}
	}
}

// addFamily layers one edge family onto the mesh. When half is true only a
// perfect matching of the family is added, so each interior node gains
// exactly one edge.
func (m *Mesh) addFamily(o offset, half bool) {
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			r2, c2 := r+o.dr, c+o.dc
			if r2 < 0 || r2 >= m.Rows || c2 < 0 || c2 >= m.Cols {
				continue
			}
			if half && !matchingEdge(o, r, c) {
				continue
			}
			m.AddEdge(m.ID(r, c), m.ID(r2, c2))
		}
	}
}

// matchingEdge selects alternate edges along each chain of the family so
// that the selected edges form a matching. The vertical lattice family uses
// checkerboard parity so that a degree-3 mesh (the only case where a half
// family must carry inter-row connectivity) stays connected — this yields
// the classic "brick wall".
func matchingEdge(o offset, r, c int) bool {
	if o.dr == 1 && o.dc == 0 {
		return (r+c)%2 == 0
	}
	if o.dr > 0 {
		return (r/o.dr)%2 == 0
	}
	return (c/o.dc)%2 == 0
}

// ID returns the node at lattice position (r, c).
func (m *Mesh) ID(r, c int) NodeID { return NodeID(r*m.Cols + c) }

// FirstRow returns the node IDs of lattice row 0 (where the paper attaches
// the sender).
func (m *Mesh) FirstRow() []NodeID { return m.row(0) }

// LastRow returns the node IDs of the last lattice row (where the paper
// attaches the receiver).
func (m *Mesh) LastRow() []NodeID { return m.row(m.Rows - 1) }

func (m *Mesh) row(r int) []NodeID {
	out := make([]NodeID, m.Cols)
	for c := 0; c < m.Cols; c++ {
		out[c] = m.ID(r, c)
	}
	return out
}

// Line returns a path graph on n nodes: 0-1-2-…-(n-1).
func Line(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

// Ring returns a cycle on n nodes.
func Ring(n int) *Graph {
	g := Line(n)
	if n > 2 {
		g.AddEdge(0, NodeID(n-1))
	}
	return g
}

// Full returns the complete graph on n nodes.
func Full(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

// Random returns a connected random graph on n nodes with approximately
// avgDegree average degree, built from a random spanning tree plus random
// chords, deterministically from seed.
func Random(n, avgDegree int, seed int64) *Graph {
	if n < 2 {
		return NewGraph(n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node: a random spanning tree.
		g.AddEdge(NodeID(perm[i]), NodeID(perm[rng.Intn(i)]))
	}
	wantEdges := n * avgDegree / 2
	for g.NumEdges() < wantEdges {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(a, b)
		}
	}
	return g
}
