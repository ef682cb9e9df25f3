package ls

import (
	"math/rand"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/routing/conformance"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// oracleSPT recomputes distances and first-hop sets for p's current
// database with an independent implementation (plain BFS plus parent-set
// union in (distance, ID) order), sharing no code with recompute or the
// incremental patch beyond containsID.
func oracleSPT(p *Protocol) ([]int32, [][]routing.NodeID) {
	n := len(p.db)
	eff := func(a, b routing.NodeID) bool {
		return int(a) < n && int(b) < n && p.have[a] && p.have[b] &&
			containsID(p.db[a].Neighbors, b) && containsID(p.db[b].Neighbors, a)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = distInf
	}
	self := p.node.ID()
	dist[self] = 0
	order := []routing.NodeID{self}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range p.db[u].Neighbors {
			if int(v) < n && dist[v] == distInf && eff(u, v) {
				dist[v] = dist[u] + 1
				order = append(order, v)
			}
		}
	}
	// Insertion sort the visit order by (distance, ID) so parents resolve
	// before children, as both production implementations guarantee.
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && (dist[order[j]] > dist[v] || (dist[order[j]] == dist[v] && order[j] > v)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
	hops := make([][]routing.NodeID, n)
	for _, v := range order {
		if v == self {
			continue
		}
		seen := make(map[routing.NodeID]bool)
		var set []routing.NodeID
		for _, u := range p.db[v].Neighbors {
			if !eff(v, u) || dist[u] != dist[v]-1 {
				continue
			}
			if u == self {
				if !seen[v] {
					seen[v] = true
					set = append(set, v)
				}
				continue
			}
			for _, h := range hops[u] {
				if !seen[h] {
					seen[h] = true
					set = append(set, h)
				}
			}
		}
		for i := 1; i < len(set); i++ {
			h := set[i]
			j := i - 1
			for j >= 0 && set[j] > h {
				set[j+1] = set[j]
				j--
			}
			set[j+1] = h
		}
		hops[v] = set
	}
	return dist, hops
}

// checkSPT asserts that p's persistent tree matches the oracle for p's
// current database.
func checkSPT(t *testing.T, trial int, p *Protocol) {
	t.Helper()
	dist, hops := oracleSPT(p)
	for v := 0; v < len(p.db); v++ {
		if p.spf.pdist[v] != dist[v] {
			t.Fatalf("trial %d node %d: pdist[%d] = %d, oracle %d",
				trial, p.node.ID(), v, p.spf.pdist[v], dist[v])
		}
		if dist[v] == distInf || routing.NodeID(v) == p.node.ID() {
			continue // rows of unreachable nodes are never consulted
		}
		got := p.spf.firstHops[v]
		if len(got) != len(hops[v]) {
			t.Fatalf("trial %d node %d: firstHops[%d] = %v, oracle %v",
				trial, p.node.ID(), v, got, hops[v])
		}
		for i := range got {
			if got[i] != hops[v][i] {
				t.Fatalf("trial %d node %d: firstHops[%d] = %v, oracle %v",
					trial, p.node.ID(), v, got, hops[v])
			}
		}
	}
}

// TestIncrementalMatchesFullSPF drives 1000 randomized trials — a small
// random graph, then a random history of link failures and restores — and
// after every event checks each router's persistent shortest-path tree
// (maintained by the incremental patch whenever it applies) against the
// independent oracle, plus the end-to-end forwarding tables against the
// reference graph.
func TestIncrementalMatchesFullSPF(t *testing.T) {
	const trials = 1000
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(9)
		g := topology.Random(n, 2+rng.Intn(2), rng.Int63())
		s := sim.New(rng.Int63())
		net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
		protos := make([]*Protocol, n)
		for i := 0; i < n; i++ {
			node := net.Node(routing.NodeID(i))
			protos[i] = New(node, DefaultConfig())
			node.AttachProtocol(protos[i])
		}
		net.Start()
		s.RunUntil(2 * time.Second)
		for _, p := range protos {
			checkSPT(t, trial, p)
		}

		edges := g.Edges()
		if len(edges) == 0 {
			continue
		}
		events := 2 + rng.Intn(5)
		for e := 0; e < events; e++ {
			edge := edges[rng.Intn(len(edges))]
			l := net.Link(edge.A, edge.B)
			if l == nil {
				continue
			}
			if l.Up() {
				net.FailLink(edge.A, edge.B)
			} else {
				net.RestoreLink(edge.A, edge.B)
			}
			s.RunUntil(s.Now() + 2*time.Second)
			for _, p := range protos {
				checkSPT(t, trial, p)
			}
		}
		conformance.AssertShortestPaths(t, net, g)
	}
}

// TestIncrementalFastPathTaken pins that the fast path actually serves
// recomputes in a failure/restore cycle — otherwise the differential test
// would vacuously compare full SPF against the oracle.
func TestIncrementalFastPathTaken(t *testing.T) {
	g := topology.Ring(8)
	s := sim.New(11)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	met := net.Metrics()
	for i := 0; i < net.Len(); i++ {
		node := net.Node(routing.NodeID(i))
		node.AttachProtocol(New(node, DefaultConfig()))
	}
	net.Start()
	s.RunUntil(2 * time.Second)
	net.FailLink(0, 1)
	s.RunUntil(s.Now() + 2*time.Second)
	net.RestoreLink(0, 1)
	s.RunUntil(s.Now() + 2*time.Second)
	if met.Get(obs.ProtoSPFIncremental) == 0 {
		t.Fatal("no recompute was served incrementally")
	}
	if met.Get(obs.ProtoSPFIncremental) >= met.Get(obs.ProtoDecisionRuns) {
		t.Fatal("incremental count should be a strict subset of decision runs (full SPFs still happen)")
	}
	conformance.AssertShortestPaths(t, net, g)
}
