package routing

import (
	"fmt"
	"testing"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// stageN stages a burst of n entries from node the way the protocols do.
func stageN(snd *BurstSender, node *netsim.Node, n int) *Burst {
	b := snd.Begin(node, n, 16, 1, true)
	for i := 0; i < n; i++ {
		b.Entries = append(b.Entries, VectorEntry{Dst: NodeID(i), Metric: 1})
		b.NextHop = append(b.NextHop, node.ID())
	}
	return b
}

// Storage is handed out by need, in power-of-two classes: a table-sized
// buffer goes back to table-sized requests only, every free list is capped,
// and all nodes of one execution context share the lists.
func TestBurstPoolClassesAndCap(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), nil)
	n0, n1 := net.Node(0), net.Node(1)
	pl := poolOf(n0)
	if poolOf(n1) != pl {
		t.Fatal("two nodes of one execution context got different pools")
	}

	var snd0, snd1 BurstSender
	big := stageN(&snd0, n0, 4000)
	bigStore := &big.Entries[0]
	if cap(big.Entries) != 4096 || cap(big.NextHop) != 4096 {
		t.Errorf("need 4000 got capacity %d/%d, want 4096", cap(big.Entries), cap(big.NextHop))
	}
	snd0.End()
	if big.Entries != nil || big.NextHop != nil {
		t.Error("released burst header still holds its storage")
	}

	small := stageN(&snd1, n1, 5)
	if cap(small.Entries) != 8 {
		t.Errorf("need 5 got capacity %d, want 8: a small update must not take a table-sized buffer", cap(small.Entries))
	}
	again := stageN(&snd0, n0, 2049) // same class as 4000
	if &again.Entries[0] != bigStore {
		t.Error("a table-sized request did not reuse the table-sized buffer another node returned")
	}
	snd0.End()
	snd1.End()

	// A stager that outgrows its stated need files the regrown buffer by
	// what it really holds.
	grown := stageN(&snd0, n0, 5)
	for i := 0; i < 100; i++ {
		grown.Entries = append(grown.Entries, VectorEntry{})
		grown.NextHop = append(grown.NextHop, 0)
	}
	c := cap(grown.Entries)
	snd0.End()
	if b := stageN(&snd0, n0, 64); cap(b.Entries) < 64 {
		t.Errorf("need 64 got capacity %d (regrown buffer of %d misfiled)", cap(b.Entries), c)
	}
	snd0.End()

	// The cap: hold more table-sized bursts at once than a class keeps.
	const class = 12
	limit := burstClassBytes / (burstEntryBytes << class)
	senders := make([]BurstSender, limit+10)
	for i := range senders {
		stageN(&senders[i], n0, 1<<class)
	}
	for i := range senders {
		senders[i].End()
	}
	if got := len(pl.classes[class]); got != limit {
		t.Errorf("class %d keeps %d buffers after %d releases, want the cap %d", class, got, len(senders), limit)
	}
	if got := len(pl.headers); got > burstShellMax {
		t.Errorf("header list holds %d, over the cap %d", got, burstShellMax)
	}

	// Steady state: a broadcast from either node, flown to delivery, draws
	// header, storage and shells from the lists and allocates nothing.
	cfg := DefaultVectorConfig()
	broadcast := func(snd *BurstSender, node *netsim.Node) {
		stageN(snd, node, 60) // three chunks per neighbor
		for _, nb := range node.Neighbors() {
			snd.SendTo(node, &cfg, nb)
		}
		snd.End()
		s.Run()
	}
	round := func() {
		broadcast(&snd0, n0)
		broadcast(&snd1, n1)
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("steady-state broadcast allocates %.1f objects, want 0", avg)
	}
}

// Burst storage is shared between the nodes of an execution context, so a
// reference dropped twice would hand one node's live advertisement to
// another as scratch. It must fail loudly, naming the advertiser.
func TestBurstDoubleReleasePanics(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(3), netsim.DefaultConfig(), nil)
	var snd BurstSender
	b := stageN(&snd, net.Node(2), 10)
	cfg := DefaultVectorConfig()
	views := snd.Views(nil, &cfg, 1)
	snd.End()
	views[0].Release() // last reference: storage goes back to the pool
	if b.refs != 0 || b.Entries != nil {
		t.Fatalf("burst not returned after its last release (refs %d)", b.refs)
	}
	defer func() {
		want := "routing: node 2: burst released more often than retained"
		if got := recover(); got != want {
			t.Errorf("second release: panic = %v, want %q", got, want)
		}
	}()
	b.Release()
}

// chatter is a protocol that broadcasts a burst on a timer and checks every
// burst it receives against its sender's pool.
type chatter struct {
	t     *testing.T
	node  *netsim.Node
	snd   BurstSender
	cfg   VectorConfig
	pools map[NodeID]*burstPool
	rx    int
}

func (c *chatter) Start() {
	c.node.Sim().ScheduleHandler(c.node.Jitter(0, time.Millisecond), c, 0, nil)
}

func (c *chatter) HandleEvent(int32, any) {
	c.broadcast(40)
	c.node.Sim().ScheduleHandler(2*time.Millisecond, c, 0, nil) // the port drains in 0.7 ms
}

func (c *chatter) broadcast(n int) {
	stageN(&c.snd, c.node, n)
	for _, nb := range c.node.Neighbors() {
		c.snd.SendTo(c.node, &c.cfg, nb)
	}
	c.snd.End()
}

func (c *chatter) HandleMessage(from NodeID, msg netsim.Message) {
	b := msg.(*VectorUpdate).Burst()
	if b.Origin != from || b.pool != c.pools[from] {
		c.t.Errorf("node %d: burst from %d (origin %d) is backed by another context's pool", c.node.ID(), from, b.Origin)
	}
	c.rx++
}

func (c *chatter) LinkDown(NodeID) {}

// LinkUp runs on the coordinator, at a barrier, like every link event.
func (c *chatter) LinkUp(NodeID) { c.broadcast(7) }

// In a sharded run a pool belongs to its shard: bursts are drawn from the
// sender's home shard even when the coordinator runs the send (link events
// at a barrier), and a burst received across the cut goes back to the
// sender's pool at the next barrier, never into the receiver's. The lists
// are plain slices, so under -race (the CI run) any touch from the wrong
// goroutine fails the test.
func TestBurstPoolOwnerShard(t *testing.T) {
	s := sim.New(1)
	net := netsim.FromGraph(s, topology.Line(4), netsim.DefaultConfig(), nil)
	net.EnableSharding([]int32{0, 0, 1, 1}, 2) // the 1-2 link crosses the cut
	pools := make(map[NodeID]*burstPool)
	chatters := make([]*chatter, net.Len())
	for i := range chatters {
		node := net.Node(NodeID(i))
		pools[node.ID()] = poolOf(node)
		chatters[i] = &chatter{t: t, node: node, cfg: DefaultVectorConfig(), pools: pools}
		node.AttachProtocol(chatters[i])
	}
	if pools[0] != pools[1] || pools[2] != pools[3] || pools[1] == pools[2] {
		t.Fatalf("pools per node %v: want one per shard", fmt.Sprint(pools))
	}
	net.Start()
	s.Schedule(20*time.Millisecond, func() { net.FailLink(1, 2) })
	s.Schedule(120*time.Millisecond, func() { net.RestoreLink(1, 2) }) // LinkUp at ~170 ms
	net.RunSharded(250 * time.Millisecond)
	net.FinishSharding()
	for _, c := range chatters {
		if c.rx == 0 {
			t.Errorf("node %d received nothing", c.node.ID())
		}
	}
	// Every node is back on the root context, which nothing was sent from.
	if pl := *net.Node(0).MessagePool(); pl != nil {
		t.Errorf("the root context grew a pool (%T) in a fully sharded run", pl)
	}
	// Everything in flight has landed: each shard's storage is back home.
	for shard, pl := range map[int]*burstPool{0: pools[0], 1: pools[2]} {
		if len(pl.classes[6]) == 0 || len(pl.classes[burstMinClass]) == 0 {
			t.Errorf("shard %d pool holds %d/%d buffers of the two classes it sent: releases went elsewhere",
				shard, len(pl.classes[6]), len(pl.classes[burstMinClass]))
		}
	}
}
