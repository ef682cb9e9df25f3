package topology

import "testing"

func TestNewFatTreeRejectsBadK(t *testing.T) {
	for _, k := range []int{0, 1, 3, 7, -2} {
		if _, err := NewFatTree(k); err == nil {
			t.Errorf("NewFatTree(%d) succeeded, want error", k)
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	for _, k := range []int{2, 4, 8} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		h := k / 2
		if got, want := ft.Len(), h*h+k*k; got != want {
			t.Errorf("k=%d: nodes = %d, want %d", k, got, want)
		}
		// Core-agg links: k pods × h agg × h uplinks; agg-edge links:
		// k pods × h agg × h edges. Total k³/2.
		if got, want := ft.NumEdges(), k*k*k/2; got != want {
			t.Errorf("k=%d: edges = %d, want %d", k, got, want)
		}
		if len(ft.Core) != h*h || len(ft.Agg) != k*h || len(ft.Edge) != k*h {
			t.Errorf("k=%d: layer sizes %d/%d/%d", k, len(ft.Core), len(ft.Agg), len(ft.Edge))
		}
		if !ft.Connected() {
			t.Errorf("k=%d: disconnected", k)
		}
		for _, c := range ft.Core {
			if d := ft.Degree(c); d != k {
				t.Errorf("k=%d: core %d degree %d, want %d", k, c, d, k)
			}
			if pod(ft, c) != -1 {
				t.Errorf("k=%d: core %d in pod %d", k, c, pod(ft, c))
			}
		}
		for _, a := range ft.Agg {
			if d := ft.Degree(a); d != k {
				t.Errorf("k=%d: agg %d degree %d, want %d", k, a, d, k)
			}
		}
		for _, e := range ft.Edge {
			if d := ft.Degree(e); d != h {
				t.Errorf("k=%d: edge %d degree %d, want %d", k, e, d, h)
			}
		}
	}
}

func TestFatTreePodMembership(t *testing.T) {
	ft, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	// Every agg/edge switch lands in a pod 0..k-1, k/2+k/2 switches per pod.
	perPod := make(map[int]int)
	for _, id := range append(append([]NodeID{}, ft.Agg...), ft.Edge...) {
		p := pod(ft, id)
		if p < 0 || p >= ft.K {
			t.Fatalf("Pod(%d) = %d out of range", id, p)
		}
		perPod[p]++
	}
	for p := 0; p < ft.K; p++ {
		if perPod[p] != ft.K {
			t.Errorf("pod %d has %d switches, want %d", p, perPod[p], ft.K)
		}
	}
	// Agg and edge switches in the same pod are adjacent; edge switches in
	// different pods are not.
	if !ft.HasEdge(ft.Agg[0], ft.Edge[0]) {
		t.Error("pod-0 agg not connected to pod-0 edge")
	}
	if ft.HasEdge(ft.Edge[0], ft.Edge[len(ft.Edge)-1]) {
		t.Error("edge switches directly connected across pods")
	}
}

// TestFatTreeECMPMultiplicity checks the fabric's defining property: between
// edge switches in different pods there are exactly (k/2)² shortest paths of
// length 4, counted by dynamic programming over the BFS distance layers.
func TestFatTreeECMPMultiplicity(t *testing.T) {
	for _, k := range []int{4, 8} {
		ft, err := NewFatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		h := k / 2
		src, dst := ft.Edge[0], ft.Edge[len(ft.Edge)-1]
		if pod(ft, src) == pod(ft, dst) {
			t.Fatal("test wants cross-pod endpoints")
		}
		dist := ft.BFS(src)
		if dist[dst] != 4 {
			t.Fatalf("k=%d: cross-pod distance %d, want 4", k, dist[dst])
		}
		// paths[v] = number of shortest src→v paths, filled in BFS order.
		paths := make([]int, ft.Len())
		paths[src] = 1
		order := make([]NodeID, 0, ft.Len())
		for v := 0; v < ft.Len(); v++ {
			order = append(order, NodeID(v))
		}
		for d := 1; d <= 4; d++ {
			for _, v := range order {
				if dist[v] != d {
					continue
				}
				for _, u := range ft.Neighbors(v) {
					if dist[u] == d-1 {
						paths[v] += paths[u]
					}
				}
			}
		}
		if paths[dst] != h*h {
			t.Errorf("k=%d: %d equal-cost shortest paths, want %d", k, paths[dst], h*h)
		}
		// Same-pod edge switches are 2 apart through any of the pod's h aggs.
		sameDist := ft.BFS(ft.Edge[0])
		if sameDist[ft.Edge[1]] != 2 {
			t.Errorf("k=%d: same-pod distance %d, want 2", k, sameDist[ft.Edge[1]])
		}
	}
}

func TestLeafSpine(t *testing.T) {
	g := LeafSpine(4, 8)
	if g.Len() != 12 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.NumEdges() != 32 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	for s := 0; s < 4; s++ {
		if d := g.Degree(NodeID(s)); d != 8 {
			t.Errorf("spine %d degree %d, want 8", s, d)
		}
	}
	for l := 4; l < 12; l++ {
		if d := g.Degree(NodeID(l)); d != 4 {
			t.Errorf("leaf %d degree %d, want 4", l, d)
		}
	}
	if !g.Connected() {
		t.Error("disconnected")
	}
}

// pod returns the pod index of an aggregation or edge switch, or -1 for a
// core switch, from FatTree's numbering: cores first, then k switches per
// pod.
func pod(ft *FatTree, id NodeID) int {
	h := ft.K / 2
	if int(id) < h*h {
		return -1
	}
	return (int(id) - h*h) / ft.K
}
