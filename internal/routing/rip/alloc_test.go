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
	net.Instrument(obs.NewMetrics())
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

	// Re-send node 1's full table exactly as broadcastFull stages it.
	p1.Stage(true)
	defer p1.Snd.End()
	views := p1.Snd.Views(nil, &p1.Cfg, 0)
	if len(views) != 1 {
		t.Fatalf("staged full packed into %d chunks, want 1", len(views))
	}
	u := views[0]
	met := net.Node(0).Metrics()
	before := met.Get(obs.ProtoAdvSkipped)
	p0.HandleMessage(1, u) // first skip resolves the lazy via-list
	if met.Get(obs.ProtoAdvSkipped) <= before {
		t.Fatal("re-sent full was not skipped")
	}
	avg := testing.AllocsPerRun(100, func() { p0.HandleMessage(1, u) })
	if avg != 0 {
		t.Errorf("skipped advertisement allocates %.1f objects, want 0", avg)
	}
}
