package partition

import (
	"reflect"
	"testing"

	"routeconv/internal/topology"
)

// testGraphs are the topologies the partitioner contract is checked
// against: a hub-heavy power-law graph, a uniform random mesh, and a line
// (the worst case for balance, since BFS order is the node order).
func testGraphs() map[string]*topology.CSR {
	return map[string]*topology.CSR{
		"ba-1000":     topology.NewCSR(topology.BarabasiAlbert(1000, 2, 7)),
		"random-300":  topology.NewCSR(topology.Random(300, 4, 11)),
		"line-100":    topology.NewCSR(topology.Line(100)),
		"smallworld":  topology.NewCSR(topology.SmallWorld(500, 4, 0.1, 3)),
		"torus-20x20": topology.NewCSR(topology.Torus(20, 20)),
	}
}

// TestPartitionBalance checks the node-count cap: no shard may exceed
// ⌈n/K⌉ plus 10% slack, every node is assigned to a valid shard, and the
// shard sizes sum to n.
func TestPartitionBalance(t *testing.T) {
	for name, c := range testGraphs() {
		for _, k := range []int{2, 3, 4, 8} {
			r := Partition(c, k, 1)
			if len(r.Assign) != c.Len() || r.K != k || len(r.Sizes) != k {
				t.Fatalf("%s k=%d: malformed result: %d assigns, K=%d, %d sizes",
					name, k, len(r.Assign), r.K, len(r.Sizes))
			}
			cap := MaxShardNodes(c.Len(), k)
			total := 0
			for s, sz := range r.Sizes {
				total += sz
				if sz > cap {
					t.Errorf("%s k=%d: shard %d holds %d nodes, cap %d", name, k, s, sz, cap)
				}
			}
			if total != c.Len() {
				t.Errorf("%s k=%d: sizes sum to %d, want %d", name, k, total, c.Len())
			}
			counted := make([]int, k)
			for u, s := range r.Assign {
				if s < 0 || int(s) >= k {
					t.Fatalf("%s k=%d: node %d assigned to shard %d", name, k, u, s)
				}
				counted[s]++
			}
			if !reflect.DeepEqual(counted, r.Sizes) {
				t.Errorf("%s k=%d: Sizes %v does not match Assign counts %v", name, k, r.Sizes, counted)
			}
		}
	}
}

// TestPartitionCutEdges recounts the cross-shard edges independently and
// compares with the reported cut.
func TestPartitionCutEdges(t *testing.T) {
	for name, c := range testGraphs() {
		for _, k := range []int{2, 4} {
			r := Partition(c, k, 42)
			cut, edges := 0, 0
			for u := 0; u < c.Len(); u++ {
				for _, v := range c.Neighbors(topology.NodeID(u)) {
					if v > topology.NodeID(u) {
						edges++
						if r.Assign[u] != r.Assign[v] {
							cut++
						}
					}
				}
			}
			if cut != r.CutEdges {
				t.Errorf("%s k=%d: CutEdges = %d, recount = %d", name, k, r.CutEdges, cut)
			}
			if cut == edges {
				t.Errorf("%s k=%d: every edge is cut — BFS contiguity is broken", name, k)
			}
		}
	}
}

// TestPartitionDeterministic pins that (graph, K, seed) fully determines
// the assignment, and that the seed actually moves the BFS start.
func TestPartitionDeterministic(t *testing.T) {
	c := topology.NewCSR(topology.BarabasiAlbert(500, 2, 9))
	a := Partition(c, 4, 5)
	b := Partition(c, 4, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical (graph, K, seed) produced different partitions")
	}
	seen := false
	for seed := int64(0); seed < 8; seed++ {
		if !reflect.DeepEqual(a.Assign, Partition(c, 4, seed).Assign) {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("assignment identical across 8 seeds — the seed is ignored")
	}
}

// TestPartitionSingleShard: K=1 assigns everything to shard 0 with no cut.
func TestPartitionSingleShard(t *testing.T) {
	c := topology.NewCSR(topology.Random(100, 4, 2))
	for _, k := range []int{1, 0, -3} { // k < 1 is treated as 1
		r := Partition(c, k, 1)
		if r.K != 1 || r.CutEdges != 0 || r.Sizes[0] != 100 {
			t.Errorf("k=%d: got K=%d cut=%d sizes=%v", k, r.K, r.CutEdges, r.Sizes)
		}
		for u, s := range r.Assign {
			if s != 0 {
				t.Fatalf("k=%d: node %d on shard %d", k, u, s)
			}
		}
	}
}

// TestPartitionMoreShardsThanNodes: K > n leaves trailing shards empty but
// stays well-formed.
func TestPartitionMoreShardsThanNodes(t *testing.T) {
	c := topology.NewCSR(topology.Line(5))
	r := Partition(c, 8, 1)
	if r.K != 8 || len(r.Sizes) != 8 {
		t.Fatalf("K=%d sizes=%v", r.K, r.Sizes)
	}
	total := 0
	for _, sz := range r.Sizes {
		total += sz
	}
	if total != 5 {
		t.Errorf("sizes sum to %d, want 5", total)
	}
	for u, s := range r.Assign {
		if s < 0 || s >= 8 {
			t.Errorf("node %d on shard %d", u, s)
		}
	}
}

// TestPartitionEmptyGraph: a zero-node graph partitions to empty shards.
func TestPartitionEmptyGraph(t *testing.T) {
	r := Partition(topology.NewCSR(topology.NewGraph(0)), 4, 1)
	if len(r.Assign) != 0 || r.CutEdges != 0 {
		t.Errorf("empty graph: %+v", r)
	}
}
