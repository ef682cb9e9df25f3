package netsim

import (
	"fmt"
	"testing"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// benchLine builds an n-node line 0-1-…-(n-1) with static routes toward
// node n-1 and no protocols attached.
func benchLine(n int) (*sim.Simulator, *Network) {
	s := sim.New(1)
	net := New(s, DefaultConfig(), nil)
	for i := 0; i < n; i++ {
		net.AddNode()
	}
	for i := 0; i < n-1; i++ {
		net.Connect(NodeID(i), NodeID(i+1))
	}
	dst := NodeID(n - 1)
	for i := 0; i < n-1; i++ {
		net.Node(NodeID(i)).SetRoute(dst, NodeID(i+1))
	}
	net.Start()
	return s, net
}

// BenchmarkForwardingOneHop measures injecting a data packet and carrying
// it across a single link: serialization event, propagation event, receive.
func BenchmarkForwardingOneHop(b *testing.B) {
	s, net := benchLine(2)
	src := net.Node(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.SendData(1, 1000, 64)
		s.Run()
	}
	if got := net.Metrics().Get(obs.PacketsDelivered); got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkForwardingChain measures a packet crossing a 16-hop path, the
// meso-scale cost dominating high-degree sweep cells.
func BenchmarkForwardingChain(b *testing.B) {
	const hops = 16
	s, net := benchLine(hops + 1)
	src := net.Node(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.SendData(NodeID(hops), 1000, 64)
		s.Run()
	}
	if got := net.Metrics().Get(obs.PacketsDelivered); got != uint64(b.N) {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkForwardingQueued measures a saturated port: a burst larger than
// the link can drain, exercising the output queue and overflow path.
func BenchmarkForwardingQueued(b *testing.B) {
	for _, burst := range []int{8, 64} {
		b.Run(fmt.Sprintf("burst%d", burst), func(b *testing.B) {
			s, net := benchLine(2)
			src := net.Node(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < burst; j++ {
					src.SendData(1, 1000, 64)
				}
				s.Run()
			}
		})
	}
}
