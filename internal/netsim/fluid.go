package netsim

import (
	"fmt"
	"slices"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/sim"
)

// This file is the fluid half of the hybrid packet/fluid traffic engine.
//
// Between FIB changes the forwarding graph is static, so the fate of a
// constant-rate flow — delivered, caught in a loop, blackholed, dropped
// onto a dead link, or queue-limited — is fully determined analytically.
// A FlowSet registers flow classes in dense slices, laid out destination
// group by destination group, and accounts for their packets in bulk when
// the forwarding graph toward their destination is about to change (lazy
// settlement): no per-packet events exist for a fluid flow, and a change
// costs only the groups whose forwarding tree it can reach. In hybrid
// mode, flows whose forwarding path traverses a changed node or failed
// link are demoted to real packet sources for a guard window around the
// change, so loops, TTL expiry and queue contention during convergence
// are still simulated packet-by-packet where the paper measures them.

// Flow fate classes assigned by the fluid evaluator.
const (
	fateDelivered uint8 = iota + 1
	fateNoRoute
	fateLoop
	fateLinkDown
)

// loopHops marks a hop count that always exceeds any TTL.
const loopHops int32 = 1 << 30

// Flow states.
const (
	flowFluid uint8 = iota
	// flowDemoted flows emit real packets via scheduled ticks until the
	// guard window expires or the trial ends.
	flowDemoted
)

// FlowSetConfig parameterizes a FlowSet.
type FlowSetConfig struct {
	// Start and Stop bound the emission window: every flow emits ticks at
	// Start, Start+interval, ... strictly before Stop.
	Start, Stop time.Duration
	// GuardWindow is how long a flow stays demoted to packet-level
	// simulation after a FIB or link change on its path (hybrid mode).
	// Zero defaults to one second.
	GuardWindow time.Duration
	// Hybrid enables demotion. When false the set is purely fluid: every
	// epoch is evaluated analytically, including the transient.
	Hybrid bool
	// Flows is the number of flows the caller is about to Add, when it
	// knows: the per-flow state is then allocated once at that size instead
	// of append-doubling its way there. Zero, or a wrong count, only costs
	// the regrowth.
	Flows int
}

// flowGroup is the flows sharing one destination: settlement walks the
// destination's forwarding tree once per epoch, not once per flow. Once
// the set is indexed the group's flows are positions [lo, hi) of the
// per-flow slices, in the order they were added.
type flowGroup struct {
	dst    NodeID
	lo, hi int32
	// limited marks a group whose aggregate rate alone can oversubscribe a
	// link. Only then does the delivered fraction drop below 1, and only
	// then does a settlement carry float state (qCarry) from one interval
	// to the next — so only a limited group must settle at every link event.
	limited    bool
	lastSettle time.Duration
}

// FlowSet is a dense registry of (src, dst, rate, size) flow classes and
// their fluid evaluator. Attach one to a Network with AttachFlows, Add
// every flow before Network.Start, and call Finish at the end of the run
// to settle the tail.
type FlowSet struct {
	net   *Network
	cfg   FlowSetConfig
	guard time.Duration

	// Per-flow state, parallel slices indexed by flow position. index
	// permutes them in place into (group, order added) order, so a flow's
	// position is stable only from then on.
	src, dst     []NodeID
	intervalNs   []int64
	size         []int32
	ttl          []int32
	nextTick     []uint32 // ticks already accounted (fluidly or as packets)
	maxTicks     []uint32
	state        []uint8
	demotedUntil []time.Duration
	qCarry       []float64 // fractional queue-drop remainder

	// Destination groups. groupOf is dense by destination node ID; the
	// first indexed flows are laid out group by group.
	groupOf []int32
	groups  []flowGroup
	indexed int

	// Per-epoch evaluator scratch, presized to NetworkSize: fate/hops are
	// the per-node memo (valid when memoEpoch matches epoch) of a settle's
	// resolve walks, and then of the demotion pass's crosses walks; visitTag
	// is the walk's on-stack marker, load/surv the queue-limit passes.
	epoch     uint32
	memoEpoch []uint32
	fate      []uint8
	hops      []int32
	visitTag  []uint32
	visitGen  uint32
	loadTag   []uint32
	load      []float64
	stack     []NodeID
}

var _ sim.Handler = (*FlowSet)(nil)

// AttachFlows creates a FlowSet bound to the network and hooks it into
// the network's FIB- and link-change paths. At most one FlowSet may be
// attached; call before Start.
func (n *Network) AttachFlows(cfg FlowSetConfig) *FlowSet {
	if n.flows != nil {
		panic("netsim: AttachFlows called twice")
	}
	if n.started {
		panic("netsim: AttachFlows after Start")
	}
	if cfg.Stop <= cfg.Start {
		panic("netsim: FlowSet Stop must be after Start")
	}
	fs := &FlowSet{net: n, cfg: cfg, guard: cfg.GuardWindow}
	if fs.guard <= 0 {
		fs.guard = time.Second
	}
	size := len(n.nodes)
	fs.groupOf = make([]int32, size)
	for i := range fs.groupOf {
		fs.groupOf[i] = -1
	}
	fs.memoEpoch = make([]uint32, size)
	fs.fate = make([]uint8, size)
	fs.hops = make([]int32, size)
	fs.visitTag = make([]uint32, size)
	fs.loadTag = make([]uint32, size)
	fs.load = make([]float64, size)
	fs.stack = make([]NodeID, 0, 64)
	if k := cfg.Flows; k > 0 {
		fs.src, fs.dst = make([]NodeID, 0, k), make([]NodeID, 0, k)
		fs.intervalNs = make([]int64, 0, k)
		fs.size, fs.ttl = make([]int32, 0, k), make([]int32, 0, k)
		fs.nextTick, fs.maxTicks = make([]uint32, 0, k), make([]uint32, 0, k)
		fs.state = make([]uint8, 0, k)
		fs.demotedUntil = make([]time.Duration, 0, k)
		fs.qCarry = make([]float64, 0, k)
	}
	n.flows = fs
	return fs
}

// Add registers one flow class emitting size-byte packets with the given
// TTL from src to dst every interval, over the set's [Start, Stop)
// window. Every flow must be added before Network.Start: indexing moves
// flows to their group's range, and a demoted flow's pending packet tick
// names the flow by position.
func (fs *FlowSet) Add(src, dst NodeID, interval time.Duration, size, ttl int) {
	if fs.net.started || fs.net.Metrics().Get(obs.FluidDemotions) > 0 {
		panic(fmt.Sprintf("netsim: FlowSet.Add(%d->%d) after Start or after a demotion: pending packet ticks name flows by position, which indexing a new flow would move", src, dst))
	}
	if interval <= 0 {
		panic("netsim: flow interval must be positive")
	}
	if src == dst {
		panic("netsim: flow src == dst")
	}
	if int(src) >= len(fs.groupOf) || int(dst) >= len(fs.groupOf) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("netsim: flow %d->%d outside the network", src, dst))
	}
	fs.src = append(fs.src, src)
	fs.dst = append(fs.dst, dst)
	fs.intervalNs = append(fs.intervalNs, interval.Nanoseconds())
	fs.size = append(fs.size, int32(size))
	fs.ttl = append(fs.ttl, int32(ttl))
	fs.nextTick = append(fs.nextTick, 0)
	window := (fs.cfg.Stop - fs.cfg.Start).Nanoseconds()
	fs.maxTicks = append(fs.maxTicks, uint32((window+interval.Nanoseconds()-1)/interval.Nanoseconds()))
	fs.state = append(fs.state, flowFluid)
	fs.demotedUntil = append(fs.demotedUntil, 0)
	fs.qCarry = append(fs.qCarry, 0)
	if fs.groupOf[dst] < 0 {
		fs.groupOf[dst] = int32(len(fs.groups))
		fs.groups = append(fs.groups, flowGroup{dst: dst})
	}
}

// index lays the flows added so far out group by group: a counting pass
// gives every flow its position in (group, order added) order, the per-flow
// slices are permuted there in place, and each group's queue-limit flag is
// computed from its now contiguous range. Every entry point that reads a
// group's flows calls it first; it is a no-op unless flows were added since.
func (fs *FlowSet) index() {
	if fs.indexed == len(fs.dst) {
		return
	}
	fs.indexed = len(fs.dst)
	for gi := range fs.groups {
		fs.groups[gi].hi = 0 // the group's flow count, then its fill cursor
	}
	for _, d := range fs.dst {
		fs.groups[fs.groupOf[d]].hi++
	}
	var sum int32
	for gi := range fs.groups {
		g := &fs.groups[gi]
		n := g.hi
		g.lo, g.hi = sum, sum
		sum += n
	}
	// to[i] is where the flow now at position i belongs. The sort is stable,
	// so flows indexed earlier keep their relative order and a group's flows
	// stay in the order they were added.
	to := make([]int32, len(fs.dst))
	for i, d := range fs.dst {
		g := &fs.groups[fs.groupOf[d]]
		to[i] = g.hi
		g.hi++
	}
	// Every swap puts one flow in its final position, so the permutation
	// costs at most one swap per flow and no second copy of the state.
	for i := range to {
		for to[i] != int32(i) {
			j := to[i]
			fs.swap(int32(i), j)
			to[i], to[j] = to[j], j
		}
	}
	capacity := float64(fs.net.cfg.LinkRateBps)
	for gi := range fs.groups {
		g := &fs.groups[gi]
		var totalBps float64
		for i := g.lo; i < g.hi; i++ {
			totalBps += fs.bps(i)
		}
		g.limited = totalBps > capacity
	}
}

// swap exchanges the whole per-flow state of positions i and j.
func (fs *FlowSet) swap(i, j int32) {
	fs.src[i], fs.src[j] = fs.src[j], fs.src[i]
	fs.dst[i], fs.dst[j] = fs.dst[j], fs.dst[i]
	fs.intervalNs[i], fs.intervalNs[j] = fs.intervalNs[j], fs.intervalNs[i]
	fs.size[i], fs.size[j] = fs.size[j], fs.size[i]
	fs.ttl[i], fs.ttl[j] = fs.ttl[j], fs.ttl[i]
	fs.nextTick[i], fs.nextTick[j] = fs.nextTick[j], fs.nextTick[i]
	fs.maxTicks[i], fs.maxTicks[j] = fs.maxTicks[j], fs.maxTicks[i]
	fs.state[i], fs.state[j] = fs.state[j], fs.state[i]
	fs.demotedUntil[i], fs.demotedUntil[j] = fs.demotedUntil[j], fs.demotedUntil[i]
	fs.qCarry[i], fs.qCarry[j] = fs.qCarry[j], fs.qCarry[i]
}

// bps returns flow i's bit rate.
func (fs *FlowSet) bps(i int32) float64 {
	return float64(fs.size[i]) * 8e9 / float64(fs.intervalNs[i])
}

// tickTime returns the emission time of flow i's k-th tick.
func (fs *FlowSet) tickTime(i int32, k uint32) time.Duration {
	return fs.cfg.Start + time.Duration(int64(k)*fs.intervalNs[i])
}

// ticksBefore returns how many of flow i's ticks fall strictly before t,
// clamped to the emission window.
func (fs *FlowSet) ticksBefore(i int32, t time.Duration) uint32 {
	if t <= fs.cfg.Start {
		return 0
	}
	if t >= fs.cfg.Stop {
		return fs.maxTicks[i]
	}
	n := (t.Nanoseconds() - fs.cfg.Start.Nanoseconds() + fs.intervalNs[i] - 1) / fs.intervalNs[i]
	if m := int64(fs.maxTicks[i]); n > m {
		n = m
	}
	return uint32(n)
}

// fibChanged is invoked by Node.SetRoute/ClearRoute/SetMultipath before
// the mutation lands: traffic accrued since the last settlement is
// accounted against the forwarding graph that actually carried it.
func (fs *FlowSet) fibChanged(node, dst NodeID) {
	if int(dst) >= len(fs.groupOf) || dst < 0 {
		return // host stub added after attach; never a fluid destination
	}
	gi := fs.groupOf[dst]
	if gi < 0 {
		return
	}
	fs.index()
	now := fs.net.sim.Now()
	g := &fs.groups[gi]
	fs.settleGroup(g, now)
	if fs.demoting(now) {
		fs.demoteThrough(g, now, node, -1)
	}
}

// demoting reports whether a change at now demotes the flows it touches:
// hybrid mode, from one guard window before the traffic starts until it
// stops.
func (fs *FlowSet) demoting(now time.Duration) bool {
	return fs.cfg.Hybrid && now >= fs.cfg.Start-fs.guard && now < fs.cfg.Stop
}

// linkChanged is invoked by Network.FailLink/RestoreLink before the
// link's state flips. The flip changes the forwarding graph toward a
// destination only where a or b forwards to the other end, so every other
// group is left alone: no flow of it crosses the link, every flow of it
// meets the same fate after the flip as before, and because a flow's ticks
// are counted in whole numbers (ticksBefore(now) - nextTick) a later
// settlement over the longer interval books exactly the same packets, the
// ones in flight at Stop included. A queue-limited group settles regardless:
// its fractional drop carry is a float that depends on where the intervals
// are cut.
func (fs *FlowSet) linkChanged(a, b NodeID) {
	fs.index()
	now := fs.net.sim.Now()
	demote := fs.demoting(now)
	na, nb := fs.net.nodes[a], fs.net.nodes[b]
	for gi := range fs.groups {
		g := &fs.groups[gi]
		onLink := na.ForwardsVia(g.dst, b) || nb.ForwardsVia(g.dst, a)
		if !onLink && !g.limited {
			continue
		}
		fs.settleGroup(g, now)
		if demote && onLink {
			fs.demoteThrough(g, now, a, b)
		}
	}
}

// ForwardsVia reports whether anything egress consults for dst at this
// node — FIB entry, ECMP set, backup chain — names the neighbor nh. It is
// the test for "can the nd-nh link's state change where nd sends dst's
// packets", whatever the links' current states: the fluid engine asks it
// of a failing or restored link's two ends.
func (nd *Node) ForwardsVia(dst, nh NodeID) bool {
	if r := nd.fibGet(dst); r != noPort && nd.neighbors[r] == nh {
		return true
	}
	if nd.multi != nil && slices.Contains(nd.multi[dst], nh) {
		return true
	}
	return nd.backup != nil && slices.Contains(nd.backup[dst], nh)
}

// settleGroup accounts every tick the group's fluid flows emitted in
// [lastSettle, now) against the current forwarding graph. The walk memo
// makes the group cost O(flows + nodes visited), and the scratch is
// preallocated, so steady-state settlement allocates nothing.
func (fs *FlowSet) settleGroup(g *flowGroup, now time.Duration) {
	if g.lastSettle >= now {
		return
	}
	g.lastSettle = now
	if now <= fs.cfg.Start || g.lo == g.hi {
		return
	}
	fs.beginEpoch()

	// Queue-limit pass: only when the group alone can oversubscribe a
	// link does the delivered fraction drop below 1. Cross-group
	// contention surfaces through the packet layer during demotion
	// windows; see DESIGN.md.
	if g.limited {
		for i := g.lo; i < g.hi; i++ {
			if fs.state[i] != flowFluid || fs.nextTick[i] >= fs.maxTicks[i] {
				continue
			}
			if f, _ := fs.resolve(fs.src[i], g.dst); f == fateDelivered {
				fs.addLoad(fs.src[i], g.dst, fs.bps(i))
			}
		}
	}

	worked := false
	for i := g.lo; i < g.hi; i++ {
		if fs.state[i] != flowFluid {
			continue // demoted: its ticks are real packets
		}
		n := fs.ticksBefore(i, now)
		if n <= fs.nextTick[i] {
			continue
		}
		ticks := uint64(n - fs.nextTick[i])
		fs.nextTick[i] = n
		worked = true
		fate, hops := fs.resolve(fs.src[i], g.dst)
		if fate == fateDelivered && hops > fs.ttl[i] {
			fate = fateLoop // path longer than the hop budget
		}
		if fate == fateDelivered {
			delivered := ticks
			// Ticks emitted within one path latency of the horizon are
			// still on the wire at Stop, exactly as the packet engine
			// would leave them. The cut is a property of the tick, not of
			// the settle that books it, so it applies to any settle that
			// reaches past it — an early and a deferred settle agree.
			lat := time.Duration(int64(hops) * fs.net.serialization(int(fs.size[i])).Nanoseconds())
			lat += time.Duration(hops) * fs.net.cfg.LinkDelay
			if cut := fs.cfg.Stop - lat; now > cut {
				if arrived := fs.ticksBefore(i, cut+1); arrived < n {
					delivered -= min(uint64(n-arrived), delivered)
				}
			}
			var qdrops uint64
			if g.limited && delivered > 0 {
				surv := fs.survival(fs.src[i], g.dst)
				if surv < 1 {
					exact := float64(delivered)*(1-surv) + fs.qCarry[i]
					qdrops = uint64(exact)
					if qdrops > delivered {
						qdrops = delivered
					}
					fs.qCarry[i] = exact - float64(qdrops)
					delivered -= qdrops
				}
			}
			fs.account(i, ticks, delivered, qdrops, DropQueueOverflow)
		} else {
			var reason DropReason
			switch fate {
			case fateNoRoute:
				reason = DropNoRoute
			case fateLoop:
				reason = DropTTLExpired
			default:
				reason = DropLinkFailure
			}
			fs.account(i, ticks, 0, ticks, reason)
		}
	}
	if worked {
		fs.net.Metrics().Inc(obs.FluidSettles)
	}
}

// account books one flow's settled ticks into the network counters. Sent
// ticks neither delivered nor dropped are the ones still in flight at
// Stop, so the conservation identity stays exact.
func (fs *FlowSet) account(i int32, sent, delivered, dropped uint64, reason DropReason) {
	met := fs.net.Metrics()
	size := uint64(fs.size[i])
	met.Add(obs.PacketsSent, sent)
	if delivered > 0 {
		met.Add(obs.PacketsDelivered, delivered)
		met.Add(obs.FluidDeliveredBytes, delivered*size)
	}
	if dropped > 0 {
		met.Add(dropCounter[reason], dropped)
		met.Add(obs.FluidDroppedBytes, dropped*size)
	}
}

// beginEpoch invalidates the per-node fate memo.
func (fs *FlowSet) beginEpoch() {
	fs.epoch++
	if fs.epoch == 0 {
		clear(fs.memoEpoch)
		fs.epoch = 1
	}
}

// beginWalk returns a fresh on-stack marker for one forwarding walk.
func (fs *FlowSet) beginWalk() uint32 {
	fs.visitGen++
	if fs.visitGen == 0 {
		clear(fs.visitTag)
		fs.visitGen = 1
	}
	return fs.visitGen
}

// impureCycle adjusts a walk's memo bound when the walk closes a loop at
// on-stack node at. Nodes above lastImpure are memoized because everything
// downstream of them is flow-independent; a cycle that runs back through a
// flow-dependent choice (at sits at or below lastImpure) voids that for
// the whole stack, since another flow entering the cycle may leave it there.
func impureCycle(stack []NodeID, lastImpure int, at NodeID) int {
	if lastImpure >= 0 && slices.Contains(stack[:lastImpure+1], at) {
		return len(stack) - 1
	}
	return lastImpure
}

// resolve walks the forwarding graph from `from` toward dst and returns
// the flow's fate plus the hop count to the destination (meaningful only
// for fateDelivered). Results for flow-independent nodes are memoized
// for the current epoch.
func (fs *FlowSet) resolve(from, dst NodeID) (uint8, int32) {
	e := fs.epoch
	gen := fs.beginWalk()
	stack := fs.stack[:0]
	lastImpure := -1
	var tFate uint8
	var tHops int32
	cur := from
	for {
		if cur == dst {
			tFate, tHops = fateDelivered, 0
			break
		}
		if fs.memoEpoch[cur] == e {
			tFate, tHops = fs.fate[cur], fs.hops[cur]
			break
		}
		if fs.visitTag[cur] == gen {
			tFate, tHops = fateLoop, loopHops
			lastImpure = impureCycle(stack, lastImpure, cur)
			break
		}
		p, pure := fs.net.nodes[cur].egress(from, dst)
		if !pure {
			lastImpure = len(stack)
		}
		fs.visitTag[cur] = gen
		stack = append(stack, cur)
		if p == nil {
			tFate, tHops = fateNoRoute, 0
			break
		}
		if p.link.down {
			tFate, tHops = fateLinkDown, 0
			break
		}
		cur = p.peer.id
	}
	fs.stack = stack // keep any ring growth
	h := tHops
	for j := len(stack) - 1; j >= 0; j-- {
		if tFate == fateDelivered && h < loopHops {
			h++
		}
		if j > lastImpure {
			u := stack[j]
			fs.memoEpoch[u] = e
			fs.fate[u] = tFate
			fs.hops[u] = h
		}
	}
	if tFate == fateDelivered {
		return tFate, tHops + int32(len(stack))
	}
	return tFate, h
}

// addLoad walks a delivered flow's path adding its bit rate to every
// transmitting node (queue-limit pass one). A node's load is tagged with
// the epoch, so the first flow to reach it in a settle zeroes it.
func (fs *FlowSet) addLoad(from, dst NodeID, bps float64) {
	cur := from
	for cur != dst {
		if fs.loadTag[cur] != fs.epoch {
			fs.loadTag[cur] = fs.epoch
			fs.load[cur] = 0
		}
		fs.load[cur] += bps
		p, _ := fs.net.nodes[cur].egress(from, dst)
		if p == nil || p.link.down {
			return
		}
		cur = p.peer.id
	}
}

// survival walks a delivered flow's path and returns the product of
// per-link acceptance ratios min(1, capacity/offered) — the fluid
// analogue of tail-drop queue overflow (queue-limit pass two).
func (fs *FlowSet) survival(from, dst NodeID) float64 {
	capacity := float64(fs.net.cfg.LinkRateBps)
	s := 1.0
	cur := from
	for cur != dst {
		if fs.loadTag[cur] == fs.epoch && fs.load[cur] > capacity {
			s *= capacity / fs.load[cur]
		}
		p, _ := fs.net.nodes[cur].egress(from, dst)
		if p == nil || p.link.down {
			break
		}
		cur = p.peer.id
	}
	return s
}

// Memo values of a demotion pass, kept in fate beside the settle's fates.
const (
	crossNo uint8 = iota + 1
	crossYes
)

// demoteThrough demotes the group's fluid flows whose current forwarding
// walk crosses the changed region: node a (FIB change, b < 0), or the
// a-b link in either direction (link change). Flows are visited in
// position order, and the walks share a per-node memo for the pass, so it
// costs O(flows + nodes) rather than O(flows × path length).
func (fs *FlowSet) demoteThrough(g *flowGroup, now time.Duration, a, b NodeID) {
	fs.beginEpoch() // the settle before this pass is done with the memo
	for i := g.lo; i < g.hi; i++ {
		if fs.state[i] != flowFluid || fs.nextTick[i] >= fs.maxTicks[i] {
			continue
		}
		if fs.crosses(fs.src[i], g.dst, a, b) {
			fs.demote(i, now)
		}
	}
}

// crosses reports whether the walk from `from` to dst visits node a
// (b < 0) or traverses the a-b link in either direction. The answer is
// memoized for the current epoch at every node from which the rest of the
// walk is flow-independent — resolve's rule.
func (fs *FlowSet) crosses(from, dst NodeID, a, b NodeID) bool {
	e := fs.epoch
	gen := fs.beginWalk()
	stack := fs.stack[:0]
	lastImpure := -1
	hit := false
	cur := from
	for cur != dst {
		if fs.memoEpoch[cur] == e {
			hit = fs.fate[cur] == crossYes
			break
		}
		if fs.visitTag[cur] == gen {
			// A loop not involving the changed region.
			lastImpure = impureCycle(stack, lastImpure, cur)
			break
		}
		fs.visitTag[cur] = gen
		p, pure := fs.net.nodes[cur].egress(from, dst)
		if !pure {
			lastImpure = len(stack)
		}
		stack = append(stack, cur)
		next := noRoute
		if p != nil {
			next = p.peer.id
		}
		if b < 0 {
			hit = cur == a
		} else {
			hit = (cur == a && next == b) || (cur == b && next == a)
		}
		if hit || p == nil || p.link.down {
			break
		}
		cur = next
	}
	fs.stack = stack // keep any ring growth
	memo := crossNo
	if hit {
		memo = crossYes
	}
	for j := len(stack) - 1; j > lastImpure; j-- {
		u := stack[j]
		fs.memoEpoch[u] = e
		fs.fate[u] = memo
	}
	return hit
}

// demote switches a flow to packet emission until now+guard. A flow
// already demoted has its window extended; otherwise its next tick is
// scheduled as a real send.
func (fs *FlowSet) demote(i int32, now time.Duration) {
	until := now + fs.guard
	if fs.state[i] == flowDemoted {
		if until > fs.demotedUntil[i] {
			fs.demotedUntil[i] = until
		}
		return
	}
	fs.state[i] = flowDemoted
	fs.demotedUntil[i] = until
	fs.net.Metrics().Inc(obs.FluidDemotions)
	fs.net.note(obs.KindFluidDemote, fs.src[i], -1, fs.dst[i])
	at := fs.tickTime(i, fs.nextTick[i])
	if at < now {
		at = now // settlement ran to now, so only a same-instant tick remains
	}
	fs.net.sim.ScheduleHandlerAt(at, fs, i, nil)
}

// absorb returns a demoted flow to the fluid: subsequent ticks are
// settled analytically again.
func (fs *FlowSet) absorb(i int32) {
	fs.state[i] = flowFluid
	fs.net.Metrics().Inc(obs.FluidReabsorptions)
	fs.net.note(obs.KindFluidAbsorb, fs.src[i], -1, fs.dst[i])
}

// HandleEvent implements sim.Handler: one demoted flow's packet tick.
// kind is the flow index. While demoted, exactly one event per flow is
// pending.
func (fs *FlowSet) HandleEvent(kind int32, _ any) {
	i := kind
	if fs.state[i] != flowDemoted {
		return
	}
	now := fs.net.sim.Now()
	if now >= fs.demotedUntil[i] || now >= fs.cfg.Stop {
		fs.absorb(i)
		return
	}
	nd := fs.net.nodes[fs.src[i]]
	nd.SendData(fs.dst[i], int(fs.size[i]), int(fs.ttl[i]))
	fs.nextTick[i]++
	if fs.nextTick[i] >= fs.maxTicks[i] {
		fs.absorb(i) // emission window exhausted
		return
	}
	fs.net.sim.ScheduleHandlerAt(fs.tickTime(i, fs.nextTick[i]), fs, i, nil)
}

// Finish settles every group's tail at the current instant — call it
// once after the simulator reaches the end of the run, before reading the
// network's counters. Ticks still within one path latency of
// the horizon are booked as in-flight, matching the packet engine's
// end-of-run balance.
func (fs *FlowSet) Finish() {
	fs.index()
	now := fs.net.sim.Now()
	for gi := range fs.groups {
		fs.settleGroup(&fs.groups[gi], now)
	}
}
