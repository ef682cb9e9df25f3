package rip

import (
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// A skipped re-advertisement must not allocate: the watermark lookup, the
// via-list timeout refreshes, and the skip counter all operate on
// persistent state. This is what makes RIP's steady state proportional to
// the change rate — on a quiet network every periodic full is a skip.
func TestSkippedAdvertisementAllocs(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(2), netsim.DefaultConfig(), nil)
	cfg := routing.DefaultVectorConfig()
	p0 := New(net.Node(0), cfg)
	p1 := New(net.Node(1), cfg)
	net.Node(0).AttachProtocol(p0)
	net.Node(1).AttachProtocol(p1)
	net.Start()
	// Converge and incorporate several periodic fulls; the route timeout
	// (180 s) stays ahead of the clock throughout.
	s.RunUntil(120 * time.Second)

	ns := p0.seen[net.Node(0).Rank(1)]
	if !ns.ok || ns.tv != p0.Ver {
		t.Fatalf("skip watermark not armed (ok=%v tv=%d ver=%d)", ns.ok, ns.tv, p0.Ver)
	}

	// Re-send node 1's full table exactly as broadcastFull stages and
	// sends it, and deliver it.
	resend := func() int {
		p1.Stage(true)
		n := p1.Snd.SendTo(net.Node(1), &p1.Cfg, 0)
		p1.Snd.End()
		s.RunUntil(s.Now() + 10*time.Millisecond)
		return n
	}
	met := net.Node(0).Metrics()
	before := met.Get(obs.ProtoAdvSkipped)
	if n := resend(); n != 1 {
		t.Fatalf("staged full packed into %d chunks, want 1", n)
	}
	entries := met.Get(obs.ProtoAdvSkipped) - before // skips count entries
	if entries == 0 {
		t.Fatal("re-sent full was not skipped")
	}
	before = met.Get(obs.ProtoAdvSkipped)
	avg := testing.AllocsPerRun(100, func() { resend() }) // 101 runs
	if got := met.Get(obs.ProtoAdvSkipped) - before; got != 101*entries {
		t.Errorf("skipped %d entries over 101 re-sent fulls of %d, want all", got, entries)
	}
	if avg != 0 {
		t.Errorf("re-sending a skipped advertisement allocates %.1f objects, want 0", avg)
	}
}
