package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// TestPropertyPacketConservation checks the fundamental accounting
// invariant: once the event queue drains, every data packet ever sent was
// either delivered or dropped for exactly one reason.
func TestPropertyPacketConservation(t *testing.T) {
	f := func(seed int64, nSends uint8, failLink bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(12, 3, seed)
		s := sim.New(seed)
		cfg := Config{
			LinkRateBps: 1_000_000,
			LinkDelay:   time.Millisecond,
			DetectDelay: 10 * time.Millisecond,
			QueueLimit:  3,
		}
		n := FromGraph(s, g, cfg, nil)
		// Random static routes: some valid, some looping, some missing.
		for i := 0; i < n.Len(); i++ {
			node := n.Node(NodeID(i))
			for dst := 0; dst < n.Len(); dst++ {
				if dst == i || rng.Intn(4) == 0 {
					continue // leave some destinations unrouted
				}
				nbrs := node.Neighbors()
				node.SetRoute(NodeID(dst), nbrs[rng.Intn(len(nbrs))])
			}
		}
		for i := 0; i < int(nSends); i++ {
			src := NodeID(rng.Intn(n.Len()))
			dst := NodeID(rng.Intn(n.Len()))
			if src == dst {
				continue
			}
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.ScheduleAt(at, func() { n.Node(src).SendData(dst, 500, 8) })
		}
		if failLink {
			edges := g.Edges()
			e := edges[rng.Intn(len(edges))]
			s.ScheduleAt(500*time.Millisecond, func() { n.FailLink(e.A, e.B) })
		}
		s.Run()
		met := n.Metrics()
		return met.Get(obs.PacketsSent) == met.Get(obs.PacketsDelivered)+dataDropped(met)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyTTLBoundsHops: a delivered packet never takes more hops than
// its initial TTL allows.
func TestPropertyTTLBoundsHops(t *testing.T) {
	f := func(seed int64, ttl uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		g := topology.Ring(8)
		s := sim.New(seed)
		rec := &recorder{}
		n := FromGraph(s, g, DefaultConfig(), rec)
		// Route the long way around: 0→1→2→...→5.
		for i := 0; i < 5; i++ {
			n.Node(NodeID(i)).SetRoute(5, NodeID(i+1))
		}
		n.Node(0).SendData(5, 100, int(ttl))
		s.Run()
		for _, p := range rec.delivered {
			if p.HopCount > int(ttl) {
				return false
			}
		}
		met := n.Metrics()
		return met.Get(obs.PacketsSent) == met.Get(obs.PacketsDelivered)+dataDropped(met)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConservationUnderChurn drives traffic through a network whose links
// flap while routes are rewritten, and checks conservation still holds.
func TestConservationUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topology.Random(10, 3, seed)
		s := sim.New(seed)
		n := FromGraph(s, g, DefaultConfig(), nil)
		for i := 0; i < n.Len(); i++ {
			node := n.Node(NodeID(i))
			for dst := 0; dst < n.Len(); dst++ {
				if dst != i {
					nbrs := node.Neighbors()
					node.SetRoute(NodeID(dst), nbrs[rng.Intn(len(nbrs))])
				}
			}
		}
		edges := g.Edges()
		for i := 0; i < 30; i++ {
			at := time.Duration(rng.Intn(3000)) * time.Millisecond
			e := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				s.ScheduleAt(at, func() { n.FailLink(e.A, e.B) })
			} else {
				s.ScheduleAt(at, func() { n.RestoreLink(e.A, e.B) })
			}
		}
		for i := 0; i < 200; i++ {
			src := NodeID(rng.Intn(n.Len()))
			dst := NodeID(rng.Intn(n.Len()))
			if src == dst {
				continue
			}
			at := time.Duration(rng.Intn(3000)) * time.Millisecond
			s.ScheduleAt(at, func() { n.Node(src).SendData(dst, 800, 16) })
		}
		s.Run()
		met := n.Metrics()
		if sent, delivered := met.Get(obs.PacketsSent), met.Get(obs.PacketsDelivered); sent != delivered+dataDropped(met) {
			t.Errorf("seed %d: sent %d ≠ delivered %d + dropped %d",
				seed, sent, delivered, dataDropped(met))
		}
	}
}

// inFlight returns the data packets still queued or on the wire.
func inFlight(m *obs.Metrics) uint64 { return m.Snapshot()["packets.in_flight_end"] }

// dataDropped returns the data packets lost for any reason.
func dataDropped(m *obs.Metrics) uint64 {
	var total uint64
	for _, c := range dropCounter[1:] {
		total += m.Get(c)
	}
	return total
}
