package topology

import "fmt"

// FatTree is a canonical k-ary fat-tree datacenter fabric (Al-Fares et al.,
// SIGCOMM 2008): (k/2)² core switches and k pods of k/2 aggregation plus
// k/2 edge switches each. Every aggregation switch connects to k/2 cores
// and to every edge switch in its pod, giving (k/2)² equal-cost shortest
// paths between edge switches in different pods — the structured ECMP
// stress case for the simulator's multipath forwarding.
//
// Node numbering: cores first (0 … (k/2)²−1), then pod by pod, aggregation
// switches before edge switches.
type FatTree struct {
	*Graph
	K int
	// Core, Agg and Edge list the node IDs of each layer in ascending order.
	Core, Agg, Edge []NodeID
}

// NewFatTree builds the k-ary fat-tree. k must be even and ≥ 2.
func NewFatTree(k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree needs even k ≥ 2, got %d", k)
	}
	h := k / 2
	nCore := h * h
	ft := &FatTree{Graph: NewGraph(nCore + k*k), K: k}
	for q := 0; q < nCore; q++ {
		ft.Core = append(ft.Core, NodeID(q))
	}
	for p := 0; p < k; p++ {
		podBase := nCore + p*k
		for j := 0; j < h; j++ {
			agg := NodeID(podBase + j)
			ft.Agg = append(ft.Agg, agg)
			// Aggregation switch j of every pod uplinks to core group j.
			for q := 0; q < h; q++ {
				ft.AddEdgeUnique(agg, NodeID(j*h+q))
			}
			for i := 0; i < h; i++ {
				ft.AddEdgeUnique(agg, NodeID(podBase+h+i))
			}
		}
		for i := 0; i < h; i++ {
			ft.Edge = append(ft.Edge, NodeID(podBase+h+i))
		}
	}
	return ft, nil
}

// LeafSpine returns a two-level Clos fabric: every one of the leaves leaf
// switches connects to every one of the spines spine switches (complete
// bipartite), giving spines equal-cost two-hop paths between any leaf pair.
// Spines are numbered 0 … spines−1, then leaves. Panics unless both counts
// are ≥ 1.
func LeafSpine(spines, leaves int) *Graph {
	if spines < 1 || leaves < 1 {
		panic(fmt.Sprintf("topology: leaf-spine needs spines, leaves ≥ 1, got %d, %d", spines, leaves))
	}
	g := NewGraph(spines + leaves)
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			g.AddEdgeUnique(NodeID(spines+l), NodeID(s))
		}
	}
	return g
}
