package netsim

import (
	"testing"

	"routeconv/internal/obs"
)

// One-hop data forwarding must not allocate: the Packet comes off the
// execution context's free list and returns to it on delivery; port events,
// queue slots, and FIB lookups all reuse pooled or dense storage, and
// counting is fixed-array arithmetic on the Metrics the network allocated
// when it was built.
func TestForwardingOneHopAllocs(t *testing.T) {
	s, net := benchLine(2)
	src := net.Node(0)
	// Warm up the event arena, the port ring, and the serialization cache.
	for i := 0; i < 16; i++ {
		src.SendData(1, 1000, 64)
		s.Run()
	}
	before := net.Metrics().Get(obs.PacketsDelivered)
	const runs = 1000
	avg := testing.AllocsPerRun(runs, func() {
		src.SendData(1, 1000, 64)
		s.Run()
	})
	if avg != 0 {
		t.Errorf("one-hop forwarding allocates %.1f objects per packet, want 0", avg)
	}
	if got := net.Metrics().Get(obs.PacketsDelivered) - before; got < runs {
		t.Fatalf("delivered %d packets during the guard, want ≥ %d", got, runs)
	}
}

// pooledTestMsg is a PooledMessage that counts its releases.
type pooledTestMsg struct{ released int }

func (m *pooledTestMsg) SizeBytes() int { return 64 }
func (m *pooledTestMsg) Release()       { m.released++ }

// sinkProto consumes messages without keeping anything.
type sinkProto struct{ received int }

func (p *sinkProto) Start()                        {}
func (p *sinkProto) HandleMessage(NodeID, Message) { p.received++ }
func (p *sinkProto) LinkDown(NodeID)               {}
func (p *sinkProto) LinkUp(NodeID)                 {}

// The control path must not allocate either: a pooled message rides a
// recycled packet to the neighbor's HandleMessage, is released exactly once,
// and the packet returns to the free list. The same holds when the flight
// ends in a drop on a failed link.
func TestControlPathAllocs(t *testing.T) {
	s, net := benchLine(2)
	sink := &sinkProto{}
	net.nodes[1].proto = sink
	msg := &pooledTestMsg{}
	src := net.Node(0)
	send := func() {
		src.SendControl(1, msg)
		s.Run()
	}
	for i := 0; i < 16; i++ {
		send()
	}
	const runs = 1000
	if avg := testing.AllocsPerRun(runs, send); avg != 0 {
		t.Errorf("control send → HandleMessage → release allocates %.1f objects per message, want 0", avg)
	}
	if sink.received != msg.released || sink.received < runs {
		t.Fatalf("%d messages handled, %d released, want equal and ≥ %d", sink.received, msg.released, runs)
	}
	net.Link(0, 1).down = true // lost on the wire: dropped, released, recycled
	handled := sink.received
	if avg := testing.AllocsPerRun(runs, send); avg != 0 {
		t.Errorf("control send → drop → release allocates %.1f objects per message, want 0", avg)
	}
	if sink.received != handled || msg.released < handled+runs {
		t.Fatalf("on a down link %d more messages were handled and %d released, want 0 and ≥ %d",
			sink.received-handled, msg.released-handled, runs)
	}
	if got := len(net.root.pktFree); got != 1 {
		t.Errorf("free list holds %d packets after one-at-a-time sends, want 1", got)
	}
}
