package bgp_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing/bgp"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// heldFlushConfig is one speaker configuration of the held-flush
// differential. Each of the skip's conditions turns on one of them: the
// per-neighbor MRAI's length, per-destination MRAI, damped withdrawals and
// flap damping's reuse flushes.
type heldFlushConfig struct {
	name string
	cfg  bgp.Config
}

func heldFlushConfigs() []heldFlushConfig {
	perDest := bgp.DefaultConfig()
	perDest.PerDestMRAI = true
	dampWd := bgp.DefaultConfig()
	dampWd.DampWithdrawals = true
	damped := bgp.BGP3Config()
	dc := bgp.DefaultDampingConfig()
	dc.HalfLife = 60 * time.Second
	damped.Damping = &dc
	return []heldFlushConfig{
		{"bgp", bgp.DefaultConfig()},
		{"bgp3", bgp.BGP3Config()},
		{"per-dest-mrai", perDest},
		{"damp-withdrawals", dampWd},
		{"bgp3-damping", damped},
	}
}

// flapProgram is one differential input: a graph, a seed, and a schedule
// of link toggles (each fails its link if up, restores it if failed), run
// until end.
type flapProgram struct {
	g     *topology.Graph
	seed  int64
	flaps []flap
	end   time.Duration
}

type flap struct {
	at   time.Duration
	link topology.Edge
}

// updateLog wraps a speaker and logs every update it receives before the
// speaker sees it. The network recycles delivered updates, so the log
// keeps a rendered copy: time, sender, withdrawn list, destination and
// path elements.
type updateLog struct {
	netsim.Protocol
	s   *sim.Simulator
	log []string
}

func (l *updateLog) HandleMessage(from netsim.NodeID, msg netsim.Message) {
	if u, ok := msg.(*bgp.Update); ok {
		l.log = append(l.log, fmt.Sprintf("%v from %d: withdraw %v, dst %d path %v",
			l.s.Now(), from, u.Withdrawn, u.Dst, u.Elems()))
	}
	l.Protocol.HandleMessage(from, msg)
}

// flapOutcome is what a program produces: every receiver's update log and
// the final forwarding tables, one next hop per (node, destination), -1
// for none.
type flapOutcome struct {
	logs [][]string
	fibs []netsim.NodeID
}

func (p flapProgram) run(cfg bgp.Config) flapOutcome {
	s := sim.New(p.seed)
	net := netsim.FromGraph(s, p.g, netsim.DefaultConfig(), nil)
	logs := make([]*updateLog, p.g.Len())
	for i := range logs {
		node := net.Node(netsim.NodeID(i))
		logs[i] = &updateLog{Protocol: bgp.New(node, cfg), s: s}
		node.AttachProtocol(logs[i])
	}
	net.Start()
	failed := map[topology.Edge]bool{}
	for _, f := range p.flaps {
		s.RunUntil(f.at)
		if failed[f.link] {
			net.RestoreLink(f.link.A, f.link.B)
		} else {
			net.FailLink(f.link.A, f.link.B)
		}
		failed[f.link] = !failed[f.link]
	}
	s.RunUntil(p.end)
	var out flapOutcome
	for i, l := range logs {
		out.logs = append(out.logs, l.log)
		for dst := 0; dst < p.g.Len(); dst++ {
			hop, ok := net.Node(netsim.NodeID(i)).NextHop(netsim.NodeID(dst))
			if !ok {
				hop = -1
			}
			out.fibs = append(out.fibs, hop)
		}
	}
	return out
}

// checkHeldFlush runs p under cfg with the held-flush skip and with every
// session flushed on every event, and reports the first difference.
func checkHeldFlush(t *testing.T, name string, p flapProgram, cfg bgp.Config) {
	t.Helper()
	got := p.run(cfg)
	restore := bgp.WithAlwaysFlush()
	want := p.run(cfg)
	restore()
	for r := range want.logs {
		g, w := got.logs[r], want.logs[r]
		for i := 0; i < len(g) || i < len(w); i++ {
			if i >= len(g) || i >= len(w) || g[i] != w[i] {
				t.Fatalf("%s: node %d's update %d: %q with the skip, %q without (%d vs %d updates)",
					name, r, i, entry(g, i), entry(w, i), len(g), len(w))
			}
		}
	}
	for i := range want.fibs {
		if got.fibs[i] != want.fibs[i] {
			n := p.g.Len()
			t.Fatalf("%s: node %d's next hop to %d is %d with the skip, %d without",
				name, i/n, i%n, got.fibs[i], want.fibs[i])
		}
	}
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(none)"
}

// randomFlapProgram draws a graph of 5 to 30 nodes from one of the
// topology generators and a schedule of 3 to 12 link toggles, the first
// during the initial convergence, spaced up to 40 s apart (a toggle may
// share its instant with the one before).
func randomFlapProgram(seed int64) flapProgram {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(26)
	var g *topology.Graph
	switch rng.Intn(4) {
	case 0:
		g = topology.Random(n, 3+rng.Intn(2), seed)
	case 1:
		g = topology.SmallWorld(n, 2, 0.3, seed)
	case 2:
		g = topology.BarabasiAlbert(n, 1+rng.Intn(2), seed)
	default:
		g = topology.Ring(n)
	}
	edges := g.Edges()
	p := flapProgram{g: g, seed: seed}
	at := time.Duration(rng.Intn(5000)) * time.Millisecond
	for k := 3 + rng.Intn(10); k > 0; k-- {
		at += time.Duration(rng.Intn(40000)) * time.Millisecond
		p.flaps = append(p.flaps, flap{at, edges[rng.Intn(len(edges))]})
	}
	p.end = at + 200*time.Second
	return p
}

// TestHeldFlushSkipMatchesFlush: skipping the flush of a session whose
// MRAI timer holds its announcements changes nothing any speaker sends or
// installs. Over random graphs and link-flap schedules, in every
// configuration, each receiver gets the same updates at the same times and
// the final FIBs agree with the skip on and off; and the traced BGP trials
// come out identical — results, record stream and path samples.
func TestHeldFlushSkipMatchesFlush(t *testing.T) {
	for _, c := range heldFlushConfigs() {
		for seed := int64(1); seed <= 12; seed++ {
			checkHeldFlush(t, fmt.Sprintf("%s seed %d", c.name, seed), randomFlapProgram(seed), c.cfg)
		}
	}
	checkTracedInvariant(t, "without the held-flush skip", bgp.WithAlwaysFlush)
}

// FuzzHeldFlushSkip is TestHeldFlushSkipMatchesFlush's comparison over a
// decoded program:
//
//	byte 0     configuration, index into heldFlushConfigs (mod 5)
//	byte 1     node count, 2 + b%29
//	byte 2     trial seed
//	byte 3     edge count m, b%64; the next 2m bytes are the edges'
//	           endpoints (mod the node count; self-loops and duplicates
//	           are skipped)
//	rest       (gap, link) pairs: after gap·250 ms, toggle edge link
//	           (mod the edge count)
//
// The program runs 200 s past its last toggle. The committed corpus
// (testdata/fuzz/FuzzHeldFlushSkip) holds one program per configuration.
func FuzzHeldFlushSkip(f *testing.F) {
	configs := heldFlushConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		c := configs[int(data[0])%len(configs)]
		n := 2 + int(data[1])%29
		p := flapProgram{g: topology.NewGraph(n), seed: int64(data[2])}
		m, rest := int(data[3])%64, data[4:]
		for ; m > 0 && len(rest) >= 2; m, rest = m-1, rest[2:] {
			if a, b := topology.NodeID(int(rest[0])%n), topology.NodeID(int(rest[1])%n); a != b {
				p.g.AddEdge(a, b)
			}
		}
		edges := p.g.Edges()
		for ; len(edges) > 0 && len(rest) >= 2; rest = rest[2:] {
			p.end += time.Duration(rest[0]) * 250 * time.Millisecond
			p.flaps = append(p.flaps, flap{p.end, edges[int(rest[1])%len(edges)]})
		}
		p.end += 200 * time.Second
		checkHeldFlush(t, c.name, p, c.cfg)
	})
}
