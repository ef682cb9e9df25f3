package routing_test

import (
	"fmt"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/routing"
	"routeconv/internal/routing/dbf"
	"routeconv/internal/routing/rip"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// sink is a neighbor that runs no routing protocol; it absorbs whatever the
// speaker under test sends.
type sink struct{}

func (sink) Start()                                      {}
func (sink) HandleMessage(netsim.NodeID, netsim.Message) {}
func (sink) LinkDown(netsim.NodeID)                      {}
func (sink) LinkUp(netsim.NodeID)                        {}

// vectorN is the network size of the fuzzed topology: node 0 speaks the
// protocol under test to neighbors 1–3; nodes 4 and 5 are unattached
// destinations.
const vectorN = 6

var vectorNeighbors = [...]netsim.NodeID{1, 2, 3}

// FuzzVectorReceive drives RIP and DBF (poisoned reverse, plain split
// horizon, and DBF with ECMP) through one
// program of received updates, link events and elapsed time, checking the
// shared core's bookkeeping and the installed forwarding state after every
// step. A program is a byte string read as (op, arg) pairs:
//
//	op%4 == 0  an explicit update from neighbor arg%3 (if its link is up)
//	           carrying arg/3%4+1 entries, each from the next two bytes:
//	           Dst in [-3, vectorN+3), Metric in [0, Infinity+3)
//	op%4 == 1  LinkDown of neighbor arg%3 (if up)
//	op%4 == 2  LinkUp of neighbor arg%3 (if down)
//	op%4 == 3  run the clock 2*arg seconds: advertisements, housekeeping,
//	           route expiry and neighbor timeouts
//
// The committed corpus (testdata/fuzz/FuzzVectorReceive) covers
// out-of-range destinations, poisoning, link flaps, expiry, and a route
// garbage-collected and then learned again. The split variants run plain
// split horizon, whose send path reads the staged next hops per neighbor;
// rip-fastgc deletes a poisoned route before the triggered update that
// would announce the poison, so Delete meets a pending changed bit.
func FuzzVectorReceive(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		ecmp := routing.DefaultVectorConfig()
		ecmp.ECMP = true
		split := routing.DefaultVectorConfig()
		split.PoisonReverse = false
		fastgc := routing.DefaultVectorConfig()
		fastgc.GCTime = time.Second
		for _, tc := range []struct {
			name string
			f    func(*netsim.Node) netsim.Protocol
		}{
			{"rip", rip.Factory(routing.DefaultVectorConfig())},
			{"rip-split", rip.Factory(split)},
			{"rip-fastgc", rip.Factory(fastgc)},
			{"dbf", dbf.Factory(routing.DefaultVectorConfig())},
			{"dbf-split", dbf.Factory(split)},
			{"dbf-ecmp", dbf.Factory(ecmp)},
		} {
			if err := runVectorProgram(tc.f, prog); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
	})
}

func runVectorProgram(factory func(*netsim.Node) netsim.Protocol, prog []byte) error {
	g := topology.NewGraph(vectorN)
	for _, n := range vectorNeighbors {
		g.AddEdge(0, n)
	}
	s := sim.New(1)
	net := netsim.FromGraph(s, g, netsim.DefaultConfig(), nil)
	node := net.Node(0)
	p := factory(node)
	node.AttachProtocol(p)
	for id := 1; id < vectorN; id++ {
		net.Node(netsim.NodeID(id)).AttachProtocol(sink{})
	}
	net.Start()
	var v *routing.Vector
	switch p := p.(type) {
	case *rip.Protocol:
		v = &p.Vector
	case *dbf.Protocol:
		v = &p.Vector
	}
	cfg := routing.DefaultVectorConfig()
	up := map[netsim.NodeID]bool{1: true, 2: true, 3: true}
	next := func() byte {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return b
	}
	for step := 0; len(prog) > 0; step++ {
		op, arg := next(), next()
		nb := vectorNeighbors[int(arg)%len(vectorNeighbors)]
		switch op % 4 {
		case 0:
			entries := make([]routing.VectorEntry, int(arg)/3%4+1)
			for i := range entries {
				entries[i] = routing.VectorEntry{
					Dst:    netsim.NodeID(int(next())%(vectorN+6) - 3),
					Metric: int32(int(next()) % (cfg.Infinity + 3)),
				}
			}
			if up[nb] {
				p.HandleMessage(nb, cfg.PackEntries(entries)[0])
			}
		case 1:
			if up[nb] {
				up[nb] = false
				p.LinkDown(nb)
			}
		case 2:
			if !up[nb] {
				up[nb] = true
				p.LinkUp(nb)
			}
		case 3:
			s.RunUntil(s.Now() + 2*time.Duration(arg)*time.Second)
		}
		if err := v.CheckBookkeeping(); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
		for dst := netsim.NodeID(0); dst < vectorN; dst++ {
			if nh, ok := node.NextHop(dst); ok && !up[nh] {
				return fmt.Errorf("step %d: FIB routes %d via %d, whose link is down", step, dst, nh)
			}
			for _, nh := range vectorNeighbors { // FIB entry or multipath set
				if !up[nh] && node.ForwardsVia(dst, nh) {
					return fmt.Errorf("step %d: node forwards %d via %d, whose link is down", step, dst, nh)
				}
			}
			if m, nh, ok := v.Table(dst); ok && m < cfg.Infinity && dst != 0 && !up[nh] {
				return fmt.Errorf("step %d: table reaches %d at metric %d via %d, whose link is down", step, dst, m, nh)
			}
		}
	}
	return nil
}
