package topology

import (
	"math/rand"
	"sort"
)

// CSR is a compressed-sparse-row snapshot of a Graph: the neighbor lists of
// all nodes concatenated into one dense column array, indexed by a row
// pointer array. Neighbors of node u occupy col[rowPtr[u]:rowPtr[u+1]],
// sorted ascending. The layout is immutable, cache-friendly, and free of
// per-node slice headers and map overhead, so BFS-style analysis of a
// 100k-node graph runs on two flat arrays.
type CSR struct {
	rowPtr []int32
	col    []NodeID
}

// NewCSR builds the CSR form of g. The graph is not retained.
func NewCSR(g *Graph) *CSR {
	n := g.Len()
	c := &CSR{
		rowPtr: make([]int32, n+1),
		col:    make([]NodeID, 0, 2*g.NumEdges()),
	}
	for u := 0; u < n; u++ {
		start := len(c.col)
		c.col = append(c.col, g.Neighbors(NodeID(u))...)
		row := c.col[start:]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		c.rowPtr[u+1] = int32(len(c.col))
	}
	return c
}

// Len returns the number of nodes.
func (c *CSR) Len() int { return len(c.rowPtr) - 1 }

// Degree returns the number of neighbors of u.
func (c *CSR) Degree(u NodeID) int { return int(c.rowPtr[u+1] - c.rowPtr[u]) }

// Neighbors returns u's neighbors in ascending order. The slice aliases the
// CSR's storage and must not be modified.
func (c *CSR) Neighbors(u NodeID) []NodeID { return c.col[c.rowPtr[u]:c.rowPtr[u+1]] }

// BFSScratch holds reusable breadth-first-search state so repeated
// traversals of the same-size graph allocate nothing.
type BFSScratch struct {
	dist  []int32
	queue []NodeID
}

// BFS computes hop distances from src; unreachable nodes get -1. The
// returned slice is owned by the scratch and overwritten by the next call.
func (c *CSR) BFS(src NodeID, s *BFSScratch) []int32 {
	n := c.Len()
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]NodeID, 0, n)
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.dist[src] = 0
	s.queue = append(s.queue[:0], src)
	for head := 0; head < len(s.queue); head++ {
		u := s.queue[head]
		du := s.dist[u]
		for _, v := range c.Neighbors(u) {
			if s.dist[v] < 0 {
				s.dist[v] = du + 1
				s.queue = append(s.queue, v)
			}
		}
	}
	return s.dist
}

// Connected reports whether every node is reachable from node 0. The empty
// graph is considered connected.
func (c *CSR) Connected() bool {
	if c.Len() == 0 {
		return true
	}
	var s BFSScratch
	for _, d := range c.BFS(0, &s) {
		if d < 0 {
			return false
		}
	}
	return true
}

// EstimateDiameter lower-bounds the diameter with the double-sweep
// heuristic: BFS from each of samples random start nodes, then BFS again
// from the farthest node found, keeping the largest eccentricity seen. For
// the small-diameter graphs of the study the bound is usually exact, at
// 2·samples BFS traversals instead of the n of Diameter. Disconnected
// graphs return -1; deterministic in seed.
func (c *CSR) EstimateDiameter(samples int, seed int64) int {
	n := c.Len()
	if n == 0 {
		return -1
	}
	if samples < 1 {
		samples = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var s BFSScratch
	best := 0
	for i := 0; i < samples; i++ {
		far, ecc, ok := c.farthest(NodeID(rng.Intn(n)), &s)
		if !ok {
			return -1
		}
		if ecc > best {
			best = ecc
		}
		if _, ecc, ok = c.farthest(far, &s); !ok {
			return -1
		}
		if ecc > best {
			best = ecc
		}
	}
	return best
}

// farthest returns the highest-distance node from src (lowest ID on ties)
// and its distance; ok is false if the graph is disconnected.
func (c *CSR) farthest(src NodeID, s *BFSScratch) (far NodeID, ecc int, ok bool) {
	dist := c.BFS(src, s)
	far, best := src, int32(0)
	for v, d := range dist {
		if d < 0 {
			return 0, 0, false
		}
		if d > best {
			far, best = NodeID(v), d
		}
	}
	return far, int(best), true
}

// AvgPathLengthSampled estimates the mean shortest-path length over all
// ordered pairs by BFS from samples random sources (exact when samples ≥
// n). It returns -1 for a disconnected or trivial graph; deterministic in
// seed.
func (c *CSR) AvgPathLengthSampled(samples int, seed int64) float64 {
	n := c.Len()
	if n < 2 {
		return -1
	}
	var srcs []NodeID
	if samples >= n {
		srcs = make([]NodeID, n)
		for i := range srcs {
			srcs[i] = NodeID(i)
		}
	} else {
		if samples < 1 {
			samples = 1
		}
		rng := rand.New(rand.NewSource(seed))
		srcs = make([]NodeID, samples)
		for i := range srcs {
			srcs[i] = NodeID(rng.Intn(n))
		}
	}
	var s BFSScratch
	var sum, pairs float64
	for _, src := range srcs {
		for v, d := range c.BFS(src, &s) {
			if d < 0 {
				return -1
			}
			if NodeID(v) != src {
				sum += float64(d)
				pairs++
			}
		}
	}
	if pairs == 0 {
		return -1
	}
	return sum / pairs
}
