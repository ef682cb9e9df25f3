package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
	"routeconv/internal/topology"
)

// This file is the differential oracle for the FlowSet's lazy paths. A byte
// program describes a small network (graph, routes, ECMP sets, backup
// chains, flows, one queue-limited group) and a timed sequence of FIB and
// link mutations. It is run twice: once through the production hooks alone,
// and once with the reference evaluator below — the pre-laziness algorithm,
// every group settled on a link event and every flow walked hop by hop with
// no memo — run immediately ahead of every mutation, so that the production
// hook firing inside the mutation finds every group settled at that instant
// and every crossing flow already demoted. The two runs must end in the same
// state, having demoted and re-absorbed the same flows in the same order.

// refPathTouches is the unmemoized walk: does the forwarding path of a
// from→dst flow visit node a (b < 0) or traverse the a-b link.
func refPathTouches(fs *FlowSet, from, dst, a, b NodeID) bool {
	seen := map[NodeID]bool{}
	cur := from
	for cur != dst {
		if seen[cur] {
			return false // loop not involving the changed region
		}
		seen[cur] = true
		next, up, _ := fs.egress(fs.net.nodes[cur], from, dst)
		if b < 0 {
			if cur == a {
				return true
			}
		} else if (cur == a && next == b) || (cur == b && next == a) {
			return true
		}
		if next == noRoute || !up {
			return false
		}
		cur = next
	}
	return false
}

// refResolve is the unmemoized fate walk.
func refResolve(fs *FlowSet, from, dst NodeID) (uint8, int32) {
	seen := map[NodeID]bool{}
	var hops int32
	for cur := from; cur != dst; hops++ {
		if seen[cur] {
			return fateLoop, loopHops
		}
		seen[cur] = true
		next, up, _ := fs.egress(fs.net.nodes[cur], from, dst)
		if next == noRoute {
			return fateNoRoute, 0
		}
		if !up {
			return fateLinkDown, 0
		}
		cur = next
	}
	return fateDelivered, hops
}

func refDemoteThrough(fs *FlowSet, g *flowGroup, now time.Duration, a, b NodeID) {
	for i := g.lo; i < g.hi; i++ {
		if fs.state[i] != flowFluid || fs.nextTick[i] >= fs.maxTicks[i] {
			continue
		}
		if refPathTouches(fs, fs.src[i], g.dst, a, b) {
			fs.demote(i, now)
		}
	}
}

// refLinkChanged settles every group and walks every flow.
func refLinkChanged(fs *FlowSet, a, b NodeID) {
	fs.index()
	now := fs.net.sim.Now()
	for gi := range fs.groups {
		g := &fs.groups[gi]
		fs.settleGroup(g, now)
		if fs.demoting(now) {
			refDemoteThrough(fs, g, now, a, b)
		}
	}
}

func refFibChanged(fs *FlowSet, node, dst NodeID) {
	gi := fs.groupOf[dst]
	if gi < 0 {
		return
	}
	fs.index()
	now := fs.net.sim.Now()
	g := &fs.groups[gi]
	fs.settleGroup(g, now)
	if fs.demoting(now) {
		refDemoteThrough(fs, g, now, node, -1)
	}
}

// progReader hands out a program's bytes, then zeros.
type progReader struct {
	b []byte
	i int
}

func (r *progReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	v := r.b[r.i]
	r.i++
	return int(v)
}

func (r *progReader) left() int { return len(r.b) - r.i }

const (
	// fluidProgSetup is where a program's mutation half starts. The set-up
	// half reads at most 175 bytes; a fixed split keeps an edit to one half
	// from shifting the meaning of the other.
	fluidProgSetup = 192
	fluidProgStart = time.Second
	// Every flow's interval divides two seconds, so every flow emits a last
	// tick one millisecond before Stop — less than one hop's latency, so a
	// delivered flow's last tick is in flight at Stop.
	fluidProgStop = 3001 * time.Millisecond
	fluidProgEnd  = 3500 * time.Millisecond
	// An op falling in the last fluidProgTail before Stop is moved into that
	// last millisecond: the settle it causes books the last tick, and must
	// book it in flight whether the tick's group settles at the op or later.
	fluidProgTail = 170 * time.Millisecond
)

// fluidRun is one execution of a program.
type fluidRun struct {
	s   *sim.Simulator
	net *Network
	fs  *FlowSet
	tl  *obs.Timeline
	ref bool
	t   *testing.T
	// earlyInFlight counts the ticks a reference settle ahead of Stop booked
	// as in flight at Stop — the ones a deferred settle must book the same.
	earlyInFlight uint64
}

// newFluidRun decodes the program's set-up half: graph, routes, ECMP sets,
// backup chains, flows, and schedules its mutation half.
func newFluidRun(t *testing.T, prog []byte, ref bool) *fluidRun {
	r := &progReader{b: prog[:min(len(prog), fluidProgSetup)]}
	n := 5 + r.next()%6
	g := topology.Ring(n)
	for c := r.next() % n; c > 0; c-- {
		a, b := NodeID(r.next()%n), NodeID(r.next()%n)
		if a != b && !g.HasEdge(a, b) {
			g.AddEdge(a, b)
		}
	}
	run := &fluidRun{s: sim.New(1), ref: ref, t: t, tl: obs.NewTimeline()}
	run.net = FromGraph(run.s, g, DefaultConfig(), TimelineObserver(run.tl))
	node := func() *Node { return run.net.Node(NodeID(r.next() % n)) }
	// pick returns 1..k distinct neighbors of nd, starting at a program-chosen
	// rank.
	pick := func(nd *Node, k int) []NodeID {
		nbrs := nd.Neighbors()
		k = min(k, len(nbrs))
		start := r.next()
		set := make([]NodeID, k)
		for i := range set {
			set[i] = nbrs[(start+i)%len(nbrs)]
		}
		return set
	}

	// Shortest-path routes toward every destination, then a few defects:
	// rerouted entries (loops, detours) and cleared ones (blackholes).
	shortestPathRoutes(run.net, g)
	for k := r.next() % 8; k > 0; k-- {
		nd, dst := node(), NodeID(r.next()%n)
		if r.next()%4 == 0 {
			nd.ClearRoute(dst)
		} else if nd.ID() != dst {
			nd.SetRoute(dst, pick(nd, 1)[0])
		}
	}
	for k := 1 + r.next()%4; k > 0; k-- {
		nd, dst := node(), NodeID(r.next()%n)
		nd.SetMultipath(dst, pick(nd, 2+r.next()%2))
	}
	for k := 1 + r.next()%4; k > 0; k-- {
		nd, dst := node(), NodeID(r.next()%n)
		nd.SetBackupRoutes(dst, pick(nd, 1+r.next()%2))
	}

	run.fs = run.net.AttachFlows(FlowSetConfig{
		Start: fluidProgStart, Stop: fluidProgStop,
		GuardWindow: time.Duration(50+100*(r.next()%4)) * time.Millisecond,
		Hybrid:      r.next()%8 != 7,
	})
	intervals := []time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond}
	for k := n + r.next()%(2*n); k > 0; k-- {
		src, dst := NodeID(r.next()%n), NodeID(r.next()%n)
		if src == dst {
			dst = (src + 1) % NodeID(n)
		}
		shape := r.next()
		size, ttl := 1000, 64
		if shape&4 != 0 {
			size = 200
		}
		if shape&8 != 0 {
			ttl = 3
		}
		run.fs.Add(src, dst, intervals[shape%4], size, ttl)
	}
	// One group whose flows together oversubscribe a 10 Mb/s link: three
	// 6 Mb/s flows toward one destination.
	hot := NodeID(r.next() % n)
	for k := 1; k <= 3; k++ {
		run.fs.Add((hot+NodeID(k))%NodeID(n), hot, 2*time.Millisecond, 1500, 64)
	}

	// The mutation half: four bytes an op, times non-decreasing from before
	// the guard window opens to after Stop.
	at := 600 * time.Millisecond
	r = &progReader{b: prog[min(len(prog), fluidProgSetup):]}
	for ops := 0; r.left() > 0 && ops < 64; ops++ {
		kind, x, y, z := r.next(), r.next(), r.next(), r.next()
		at += time.Duration(z%16) * 20 * time.Millisecond
		op := at
		if tail := fluidProgStop - at; tail > 0 && tail <= fluidProgTail {
			op = fluidProgStop - tail/256
		}
		op = min(op, fluidProgEnd-100*time.Millisecond)
		run.s.ScheduleAt(op, func() { run.apply(kind, x, y, z) })
	}
	return run
}

// apply performs one mutation. In a reference run the reference evaluator
// goes first, under the same condition the production hook fires on, and
// the hook must then find no flow left to demote.
func (run *fluidRun) apply(kind, x, y, z int) {
	net, fs := run.net, run.fs
	n := net.Len()
	nd, dst := net.Node(NodeID(x%n)), NodeID(y%n)
	nbrs := nd.Neighbors()
	nh := nbrs[z%len(nbrs)]
	links := net.Links()
	l := links[(x*256+y)%len(links)]
	a, b := l.edge.A, l.edge.B

	// before runs the reference ahead of the mutation when this is the
	// reference run; mutate is the mutation itself.
	var before, mutate func()
	switch kind % 8 {
	case 0, 1:
		if nd.ID() == dst {
			return
		}
		if cur, ok := nd.NextHop(dst); !ok || cur != nh {
			before = func() { refFibChanged(fs, nd.ID(), dst) }
		}
		mutate = func() { nd.SetRoute(dst, nh) }
	case 2:
		if _, ok := nd.NextHop(dst); ok {
			before = func() { refFibChanged(fs, nd.ID(), dst) }
		}
		mutate = func() { nd.ClearRoute(dst) }
	case 3:
		var set []NodeID
		if z%4 != 0 { // else: clear the set
			set = []NodeID{nh, nbrs[(z+1)%len(nbrs)]}
		}
		if len(set) >= 2 || nd.Multipath(dst) != nil {
			before = func() { refFibChanged(fs, nd.ID(), dst) }
		}
		mutate = func() { nd.SetMultipath(dst, set) }
	case 4, 5:
		if !l.down {
			before = func() { refLinkChanged(fs, a, b) }
		}
		mutate = func() { net.FailLink(a, b) }
	case 6:
		if l.down && l.endsDown == 0 {
			before = func() { refLinkChanged(fs, a, b) }
		}
		mutate = func() { net.RestoreLink(a, b) }
	case 7:
		if z%4 != 0 {
			return // node failures are the rare op
		}
		// FailNode flips the node's up links one by one. Taking a link down
		// reroutes only flows that crossed it, which the reference has
		// demoted by then, so running the reference for every link ahead of
		// the first flip demotes the same flows in the same order.
		var flips []*Link
		if !nd.failed {
			for _, p := range nd.ports {
				if !p.link.down {
					flips = append(flips, p.link)
				}
			}
		}
		before = func() {
			for _, fl := range flips {
				refLinkChanged(fs, fl.edge.A, fl.edge.B)
			}
		}
		mutate = func() { net.FailNode(nd.ID()) }
	}
	if run.ref && before != nil {
		inflight := fs.totals.InFlightEnd
		before()
		if run.s.Now() < fluidProgStop {
			run.earlyInFlight += fs.totals.InFlightEnd - inflight
		}
		met := run.net.Metrics()
		demoted := met.Get(obs.FluidDemotions)
		mutate()
		if now := met.Get(obs.FluidDemotions); now != demoted {
			run.t.Errorf("t=%v op %d(%d,%d,%d): the production hook demoted %d flows the reference walk did not",
				run.s.Now(), kind%8, x, y, z, now-demoted)
		}
	} else {
		mutate()
	}
	if !run.ref {
		run.checkResolve()
	}
}

// checkResolve compares the memoized fate walk against the unmemoized one
// for every flow, a group at a time in one epoch each — as a settle does —
// so that later flows are served by the memo earlier ones left.
func (run *fluidRun) checkResolve() {
	fs := run.fs
	fs.index()
	for _, g := range fs.groups {
		fs.beginEpoch()
		for i := g.lo; i < g.hi; i++ {
			fate, hops := fs.resolve(fs.src[i], g.dst)
			wantFate, wantHops := refResolve(fs, fs.src[i], g.dst)
			if fate != wantFate || (fate == fateDelivered && hops != wantHops) {
				run.t.Errorf("t=%v flow %d->%d: resolve = fate %d hops %d, unmemoized walk says fate %d hops %d",
					run.s.Now(), fs.src[i], g.dst, fate, hops, wantFate, wantHops)
			}
		}
	}
}

// fluidOutcome is everything the two runs must agree on.
type fluidOutcome struct {
	Metrics  obs.Snapshot // without fluid.settles: settling less is the point
	Totals   FluidTotals
	NextTick []uint32
	QCarry   []float64
	// Moves is the sequence of demotions and re-absorptions.
	Moves []obs.Record
}

func (run *fluidRun) finish() (fluidOutcome, uint64) {
	run.s.RunUntil(fluidProgEnd)
	run.fs.Finish()
	out := fluidOutcome{
		Metrics:  run.net.Metrics().Snapshot(),
		Totals:   run.fs.Totals(),
		NextTick: run.fs.nextTick,
		QCarry:   run.fs.qCarry,
	}
	settles := out.Metrics["fluid.settles"]
	delete(out.Metrics, "fluid.settles")
	for _, rec := range run.tl.Records() {
		if rec.Kind == obs.KindFluidDemote || rec.Kind == obs.KindFluidAbsorb {
			out.Moves = append(out.Moves, rec)
		}
	}
	return out, settles
}

// fluidCoverage is what a batch of programs exercised; the seeded test
// asserts none of it is zero, so the oracle cannot go vacuous unnoticed.
type fluidCoverage struct {
	demotions, reabsorptions, queueDrops, deferred, impureWalks, earlyInFlight uint64
}

// checkFluidProgram runs the program both ways and compares.
func checkFluidProgram(t *testing.T, prog []byte, cov *fluidCoverage) {
	t.Helper()
	lazy, lazySettles := newFluidRun(t, prog, false).finish()
	refRun := newFluidRun(t, prog, true)
	ref, refSettles := refRun.finish()
	if !reflect.DeepEqual(lazy, ref) {
		t.Errorf("lazy and reference runs differ on program %v\n lazy: %s\n  ref: %s", prog, lazy, ref)
	}
	if lazySettles > refSettles {
		t.Errorf("lazy run settled %d groups, reference %d", lazySettles, refSettles)
	}
	if cov != nil {
		cov.demotions += lazy.Metrics["fluid.demotions"]
		cov.reabsorptions += lazy.Metrics["fluid.reabsorptions"]
		cov.queueDrops += lazy.Totals.Drops[DropQueueOverflow]
		cov.deferred += refSettles - lazySettles
		cov.earlyInFlight += refRun.earlyInFlight
		fs := refRun.fs
		for i := range fs.src { // flows that end the run forwarded by an ECMP node
			cur := fs.src[i]
			for hop := 0; hop < len(fs.groupOf) && cur != fs.dst[i]; hop++ {
				next, up, pure := fs.egress(fs.net.nodes[cur], fs.src[i], fs.dst[i])
				if !pure {
					cov.impureWalks++
				}
				if next == noRoute || !up || !pure {
					break
				}
				cur = next
			}
		}
	}
}

func (o fluidOutcome) String() string {
	moves := make([]string, len(o.Moves))
	for i, m := range o.Moves {
		moves[i] = fmt.Sprintf("%v:%v:%d->%d", m.At, m.Kind, m.Node, m.Dst)
	}
	return fmt.Sprintf("metrics %v totals %+v nextTick %v qCarry %v moves %v", o.Metrics, o.Totals, o.NextTick, o.QCarry, moves)
}

// randomFluidProgram draws a program: a set-up half and up to 48 ops.
func randomFluidProgram(rng *rand.Rand) []byte {
	prog := make([]byte, fluidProgSetup+4*rng.Intn(49))
	rng.Read(prog)
	return prog
}

// TestFluidLazyMatchesReference drives the oracle with seeded random
// programs: small graphs with ECMP sets and backup chains, SetRoute /
// ClearRoute / SetMultipath / FailLink / RestoreLink / FailNode sequences
// from before the guard window to after Stop, one queue-limited group.
func TestFluidLazyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var cov fluidCoverage
	for k := 0; k < 300 && !t.Failed(); k++ {
		checkFluidProgram(t, randomFluidProgram(rng), &cov)
	}
	t.Logf("exercised: %+v", cov)
	if cov.demotions == 0 || cov.reabsorptions == 0 || cov.queueDrops == 0 || cov.deferred == 0 || cov.impureWalks == 0 || cov.earlyInFlight == 0 {
		t.Errorf("the programs left part of the engine unexercised: %+v", cov)
	}
}

// FuzzFluidLazy explores the same program encoding; its seed corpus lives
// in testdata/fuzz/FuzzFluidLazy.
func FuzzFluidLazy(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			t.Skip()
		}
		checkFluidProgram(t, prog, nil)
	})
}

// TestFluidResolveImpureCycle pins the memo rule on a loop that runs back
// through an ECMP node: 1→2→0→1 loops for the flow from 0 hashed onto next
// hop 1, but a flow from 1 or 2 that 0 hashes onto next hop 3 leaves the
// cycle there and is delivered. Nothing on such a cycle may be memoized.
func TestFluidResolveImpureCycle(t *testing.T) {
	g := topology.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	g.AddEdge(3, 4)
	const dst = 4
	// Sources 0, 1, 2 in an order that puts a looping flow first and a
	// delivered one after it; which is which depends on the flow hash.
	loops := func(src NodeID) bool { return flowHash(src, dst, 2) == 0 } // set[0] = 1
	var order []NodeID
	for _, want := range []bool{true, false} {
		for src := NodeID(0); src < 3; src++ {
			if loops(src) == want {
				order = append(order, src)
			}
		}
	}
	if !loops(order[0]) || loops(order[len(order)-1]) {
		t.Fatalf("flowHash sends sources 0-2 toward %d the same way, so this pins nothing; give the destination a node ID that splits them", dst)
	}
	s := sim.New(1)
	net := FromGraph(s, g, DefaultConfig(), nil)
	net.Node(0).SetRoute(dst, 3)
	net.Node(0).SetMultipath(dst, []NodeID{1, 3})
	net.Node(1).SetRoute(dst, 2)
	net.Node(2).SetRoute(dst, 0)
	net.Node(3).SetRoute(dst, 4)
	fs := net.AttachFlows(FlowSetConfig{Start: time.Second, Stop: 2 * time.Second})
	fs.beginEpoch()
	for _, src := range order {
		fate, _ := fs.resolve(src, dst)
		want, _ := refResolve(fs, src, dst)
		if fate != want {
			t.Errorf("flow %d->%d after %v: fate %d, unmemoized walk says %d", src, dst, order, fate, want)
		}
	}
}

// TestFluidIndexLayout pins the in-place layout: after indexing, every
// group is a contiguous range holding its flows in the order they were
// added, with every per-flow field moved along, and flows added later are
// folded in without disturbing that order.
func TestFluidIndexLayout(t *testing.T) {
	s := sim.New(1)
	net := FromGraph(s, topology.Full(6), DefaultConfig(), nil)
	fs := net.AttachFlows(FlowSetConfig{Start: time.Second, Stop: 2 * time.Second})
	rng := rand.New(rand.NewSource(7))
	// One row of distinct values per flow, in the order swap lists the slices.
	type flow struct {
		src, dst     NodeID
		intervalNs   int64
		size, ttl    int32
		nextTick     uint32
		maxTicks     uint32
		state        uint8
		demotedUntil time.Duration
		qCarry       float64
	}
	at := func(i int) flow {
		return flow{fs.src[i], fs.dst[i], fs.intervalNs[i], fs.size[i], fs.ttl[i],
			fs.nextTick[i], fs.maxTicks[i], fs.state[i], fs.demotedUntil[i], fs.qCarry[i]}
	}
	// swap must name every per-flow slice; one added to FlowSet and left out
	// of it (and of this test) would stay behind when index moves the rest.
	perFlow := 0
	for v, i := reflect.ValueOf(fs).Elem(), 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() == 0 {
			perFlow++ // unsized at attach: grows with Add
		}
	}
	if want := reflect.TypeOf(flow{}).NumField() + 1; perFlow != want { // + groups
		t.Fatalf("FlowSet has %d slices that grow with Add, this test and swap know %d", perFlow, want)
	}
	var added []flow
	check := func() {
		t.Helper()
		fs.index()
		pos := 0
		for _, g := range fs.groups {
			if int(g.lo) != pos {
				t.Fatalf("group %d starts at %d, want %d", g.dst, g.lo, pos)
			}
			for _, f := range added {
				if f.dst != g.dst {
					continue
				}
				if got := at(pos); got != f {
					t.Fatalf("position %d holds %+v, want %+v", pos, got, f)
				}
				pos++
			}
			if int(g.hi) != pos {
				t.Fatalf("group %d ends at %d, want %d", g.dst, g.hi, pos)
			}
		}
		if pos != len(added) {
			t.Fatalf("groups cover %d flows of %d", pos, len(added))
		}
	}
	for round := 0; round < 3; round++ {
		for k := 0; k < 40; k++ {
			src, dst := NodeID(rng.Intn(6)), NodeID(rng.Intn(5))
			if src == dst {
				dst = 5
			}
			fs.Add(src, dst, time.Duration(1+rng.Intn(50))*time.Millisecond, 100+k, 10+k)
			// The fields Add derives or zeroes get a value of their own too.
			i, id := len(fs.src)-1, len(added)+1
			fs.nextTick[i], fs.maxTicks[i] = uint32(id), uint32(1000+id)
			fs.state[i] = uint8(id % 2)
			fs.demotedUntil[i], fs.qCarry[i] = time.Duration(id)*time.Second, float64(id)/256
			added = append(added, at(i))
		}
		check()
	}
	if !slices.IsSortedFunc(fs.groups, func(a, b flowGroup) int { return int(a.lo - b.lo) }) {
		t.Error("groups out of position order")
	}
}
