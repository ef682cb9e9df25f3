// Package bgp implements the path-vector protocol of the paper's §3: BGP-4
// restricted to shortest-path routing policy with one router per AS.
//
// Each router keeps the latest path heard from every neighbor (Adj-RIB-In),
// so path switch-over is instant when an alternate exists. A received path
// containing the receiver is a routing loop and is treated as a withdrawal,
// which plays the role of split horizon with poisoned reverse. Updates are
// sent only on change, spaced per neighbor by the Minimum Route
// Advertisement Interval (MRAI); withdrawals are exempt from MRAI. The
// paper's "BGP3" variant is this protocol with a 3 s MRAI instead of 30 s,
// and §5.2 notes results would differ with a per-(neighbor, destination)
// MRAI — both are supported.
//
// Performance: all per-neighbor RIBs are dense slices outer-indexed by
// neighbor ID and inner-indexed by contiguous destination ID, and every
// stored path is a 32-bit ID into a per-speaker intern table (intern.go).
// Ascending-index iteration over the dense tables produces exactly the
// order the previous map+sort implementation produced, so trial results
// are bit-for-bit identical; see DESIGN.md's Performance section.
package bgp

import (
	"fmt"
	"strings"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
)

// Message size model, matching the RFC 4271-shaped encoding in wire.go
// plus 40 bytes of TCP/IP framing: a 19-byte BGP header and the two
// section-length fields; 5 bytes per withdrawn route; 14 bytes of
// attribute/NLRI overhead plus 4 bytes per path element for an
// announcement. TestWireSizeModel pins SizeBytes to len(Encode()).
const (
	headerBytes   = TCPIPOverhead + bgpHeaderLen + 4
	withdrawBytes = 5
	announceBytes = 14
	pathElemBytes = 4
)

// Config parameterizes a BGP speaker.
type Config struct {
	// MRAI is the mean minimum interval between successive advertisements
	// to the same neighbor. The paper's BGP uses 30 s; BGP3 uses 3 s.
	MRAI time.Duration
	// MRAIJitter spreads each drawn interval uniformly over MRAI ± jitter.
	MRAIJitter time.Duration
	// PerDestMRAI switches the timer from per-neighbor (vendor default,
	// used in the paper) to per-(neighbor, destination) — the §5.2 ablation.
	PerDestMRAI bool
	// DampWithdrawals subjects withdrawals to MRAI too (an ablation; the
	// paper's BGP sends withdrawals immediately).
	DampWithdrawals bool
	// Damping enables RFC 2439 route flap damping when non-nil — the
	// mechanism whose interaction with convergence the paper's
	// introduction highlights ([4], [15]).
	Damping *DampingConfig
}

// DefaultConfig returns the paper's standard BGP parameters: a 30 s
// per-neighbor MRAI.
func DefaultConfig() Config {
	return Config{MRAI: 30 * time.Second, MRAIJitter: 7500 * time.Millisecond}
}

// BGP3Config returns the paper's specially parameterized BGP3: a 3 s MRAI,
// making its damping delay comparable to RIP/DBF's triggered-update timer.
func BGP3Config() Config {
	return Config{MRAI: 3 * time.Second, MRAIJitter: 750 * time.Millisecond}
}

// Update is a BGP update message. Because every destination originates its
// own prefix, no two destinations share a path, so an update announces at
// most one destination (as §5.2 observes) while withdrawals batch freely.
//
// An Update is immutable once built. Updates sent by a Protocol are drawn
// from a per-speaker free list and recycled by the network after delivery
// (netsim.PooledMessage), so receivers must copy anything they keep;
// hand-built updates (tests, DecodeUpdate) are not pooled and Release is a
// no-op for them.
type Update struct {
	// Withdrawn lists destinations the sender can no longer reach.
	Withdrawn []routing.NodeID
	// Dst is the announced destination; valid only when Path is non-nil.
	Dst routing.NodeID
	// Path is the sender's path to Dst, starting with the sender itself
	// and ending with Dst. For pooled updates it aliases the sender's
	// intern table and must not be modified.
	Path []routing.NodeID
	// size memoizes SizeBytes (0 = not yet computed; a real size is never
	// 0 because headerBytes > 0).
	size int32
	// pool is the free list the update returns to on Release; nil for
	// hand-built updates.
	pool *updatePool
}

// SizeBytes implements netsim.Message. The update is immutable after
// construction, so the size is computed once and memoized.
func (u *Update) SizeBytes() int {
	if u.size == 0 {
		s := headerBytes + withdrawBytes*len(u.Withdrawn)
		if u.Path != nil {
			s += announceBytes + pathElemBytes*len(u.Path)
		}
		u.size = int32(s)
	}
	return int(u.size)
}

// updatePool recycles Update messages through a free list: the network
// releases each pooled update once its flight ends, so steady-state update
// traffic allocates neither messages nor withdrawal batches.
type updatePool struct{ free []*Update }

// get returns a zeroed update, reusing a released one when available.
func (up *updatePool) get() *Update {
	if n := len(up.free); n > 0 {
		u := up.free[n-1]
		up.free = up.free[:n-1]
		return u
	}
	return &Update{pool: up}
}

// Release implements netsim.PooledMessage: the update (and the capacity of
// its withdrawal batch) returns to its owner's free list. Hand-built
// updates are not pooled; for them Release does nothing.
func (u *Update) Release() {
	if u.pool == nil {
		return
	}
	u.Withdrawn = u.Withdrawn[:0]
	u.Dst = 0
	u.Path = nil
	u.size = 0
	u.pool.free = append(u.pool.free, u)
}

// Protocol is a BGP speaker bound to one node.
//
// All per-neighbor state lives in dense slices outer-indexed by neighbor
// ID (rows exist only for live sessions) and inner-indexed by destination
// ID; destinations are contiguous from 0, so ascending-index iteration
// visits them in exactly the sorted order the previous map-based
// implementation produced.
type Protocol struct {
	node *netsim.Node
	cfg  Config
	// intern hash-conses every path this speaker stores or originates.
	intern *internTable
	// adjIn holds, per neighbor, the latest valid path heard per
	// destination (noPath = none). Paths that contain this node are never
	// stored (loop = withdrawal). A nil row means no session.
	adjIn [][]pathID
	// best holds the selected path per destination, starting with this
	// node (noPath = unreachable).
	best []pathID
	// ribOut holds, per neighbor, the path last advertised (noPath after a
	// withdrawal).
	ribOut [][]pathID
	// pending flags, per neighbor, destinations whose state changed since
	// the last flush; pendingCount tracks how many flags are set per
	// neighbor so an idle flush is O(1). pendList mirrors the flagged set
	// as an explicit list so a flush touches only pending destinations:
	// outside flush flags are only ever set (setPending appends on each
	// false→true flip, so the list holds no duplicates), and every flush
	// ends by rebuilding the list from what stayed flagged, restoring
	// sorted order.
	pending      [][]bool
	pendingCount []int
	pendList     [][]routing.NodeID
	// deadline holds, in per-destination MRAI mode, the earliest time each
	// (neighbor, destination) may next be advertised.
	deadline [][]time.Duration
	mrai     []*sim.Timer
	up       []bool
	// dirty flags destinations changed while processing one event;
	// dirtyList holds the same set explicitly so propagating them to the
	// neighbors' pending sets walks only what changed.
	dirty     []bool
	dirtyList []routing.NodeID
	// wdScratch/annScratch are flush's reusable classification buffers.
	wdScratch, annScratch []routing.NodeID
	// pool recycles outgoing Update messages.
	pool updatePool
	// damper is non-nil when route flap damping is enabled.
	damper *damper
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a BGP instance for the node.
func New(node *netsim.Node, cfg Config) *Protocol {
	p := &Protocol{
		node:   node,
		cfg:    cfg,
		intern: newInternTable(),
	}
	if cfg.Damping != nil {
		p.damper = newDamper(*cfg.Damping, node.Sim(), func(_, dst routing.NodeID) {
			p.recompute(dst)
			p.flushAll()
		})
		p.damper.node = node
	}
	return p
}

// Factory returns a constructor suitable for attaching BGP to every node.
func Factory(cfg Config) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// newPathRow returns a row of n empty path slots.
func newPathRow(n int) []pathID {
	row := make([]pathID, n)
	for i := range row {
		row[i] = noPath
	}
	return row
}

// ids returns the current destination-universe size.
func (p *Protocol) ids() int { return len(p.best) }

// ensureDst grows every dense table so dst is a valid index. The universe
// is sized to the network at Start, so this only triggers for unit tests
// that inject out-of-range destinations.
func (p *Protocol) ensureDst(dst routing.NodeID) {
	if int(dst) < p.ids() {
		return
	}
	n := int(dst) + 1
	grow := func(row []pathID) []pathID {
		grown := newPathRow(n)
		copy(grown, row)
		return grown
	}
	p.best = grow(p.best)
	grownDirty := make([]bool, n)
	copy(grownDirty, p.dirty)
	p.dirty = grownDirty
	for i := range p.adjIn {
		if p.adjIn[i] != nil {
			p.adjIn[i] = grow(p.adjIn[i])
		}
		if p.ribOut[i] != nil {
			p.ribOut[i] = grow(p.ribOut[i])
		}
		if p.pending[i] != nil {
			grown := make([]bool, n)
			copy(grown, p.pending[i])
			p.pending[i] = grown
		}
		if p.deadline[i] != nil {
			grown := make([]time.Duration, n)
			copy(grown, p.deadline[i])
			p.deadline[i] = grown
		}
	}
}

// bestID returns the selected path ID for dst (noPath when unreachable or
// unknown).
func (p *Protocol) bestID(dst routing.NodeID) pathID {
	if dst >= 0 && int(dst) < len(p.best) {
		return p.best[dst]
	}
	return noPath
}

// adjInGet returns the Adj-RIB-In entry for (neighbor, dst), or noPath.
func (p *Protocol) adjInGet(n, dst routing.NodeID) pathID {
	if int(n) >= len(p.adjIn) {
		return noPath
	}
	row := p.adjIn[n]
	if row == nil || dst < 0 || int(dst) >= len(row) {
		return noPath
	}
	return row[dst]
}

// upTo reports whether the session to neighbor n is up.
func (p *Protocol) upTo(n routing.NodeID) bool {
	return int(n) < len(p.up) && p.up[n]
}

// BestPath returns the selected path to dst (starting with this node), or
// nil when the destination is unreachable. The slice aliases the intern
// table and must not be modified. Exposed for tests and tools.
func (p *Protocol) BestPath(dst routing.NodeID) []routing.NodeID {
	return p.intern.path(p.bestID(dst))
}

// DebugState renders the speaker's complete state for one destination —
// Adj-RIB-In paths, Adj-RIB-Out, pending flags, and MRAI timers — for
// tests and troubleshooting tools.
func (p *Protocol) DebugState(dst routing.NodeID) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "node %d dst %d best=%v\n", p.node.ID(), dst, p.BestPath(dst))
	for _, n := range p.node.Neighbors() {
		var out pathID = noPath
		if int(n) < len(p.ribOut) && p.ribOut[n] != nil && int(dst) < len(p.ribOut[n]) {
			out = p.ribOut[n][dst]
		}
		pend := int(n) < len(p.pending) && p.pending[n] != nil && int(dst) < len(p.pending[n]) && p.pending[n][dst]
		fmt.Fprintf(&sb, "  nbr %d up=%v in=%v out=%v pending=%v mrai=%v",
			n, p.upTo(n), p.intern.path(p.adjInGet(n, dst)), p.intern.path(out), pend, p.mrai[n].Pending())
		if p.damper != nil && p.damper.Suppressed(n, dst) {
			sb.WriteString(" SUPPRESSED")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Start implements netsim.Protocol.
func (p *Protocol) Start() {
	self := p.node.ID()
	n := p.node.NetworkSize()
	if int(self) >= n {
		n = int(self) + 1
	}
	p.best = newPathRow(n)
	p.dirty = make([]bool, n)
	p.adjIn = make([][]pathID, n)
	p.ribOut = make([][]pathID, n)
	p.pending = make([][]bool, n)
	p.pendingCount = make([]int, n)
	p.pendList = make([][]routing.NodeID, n)
	p.deadline = make([][]time.Duration, n)
	p.mrai = make([]*sim.Timer, n)
	p.up = make([]bool, n)
	p.best[self] = p.intern.intern([]routing.NodeID{self})
	for _, nb := range p.node.Neighbors() {
		p.sessionUp(nb)
		p.setPending(nb, self)
	}
	p.flushAll()
}

// sessionUp initializes per-neighbor state.
func (p *Protocol) sessionUp(n routing.NodeID) {
	size := p.ids()
	p.up[n] = true
	p.adjIn[n] = newPathRow(size)
	p.ribOut[n] = newPathRow(size)
	p.pending[n] = make([]bool, size)
	p.pendingCount[n] = 0
	p.pendList[n] = p.pendList[n][:0]
	if p.cfg.PerDestMRAI {
		p.deadline[n] = make([]time.Duration, size)
	}
	if p.mrai[n] == nil {
		n := n
		p.mrai[n] = sim.NewTimer(p.node.Sim(), func() { p.flush(n) })
	}
}

// setPending flags dst toward neighbor n.
func (p *Protocol) setPending(n, dst routing.NodeID) {
	if !p.pending[n][dst] {
		p.pending[n][dst] = true
		p.pendingCount[n]++
		p.pendList[n] = append(p.pendList[n], dst)
	}
}

// clearPending unflags dst toward neighbor n.
func (p *Protocol) clearPending(n, dst routing.NodeID) {
	if p.pending[n][dst] {
		p.pending[n][dst] = false
		p.pendingCount[n]--
	}
}

// HandleMessage implements netsim.Protocol.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*Update)
	if !ok {
		return
	}
	p.node.Metrics().Inc(obs.ProtoUpdatesReceived)
	if int(from) >= len(p.adjIn) || p.adjIn[from] == nil {
		return // no session (e.g. message raced a link-down detection)
	}
	for _, dst := range u.Withdrawn {
		if p.adjInGet(from, dst) != noPath {
			p.adjIn[from][dst] = noPath
			if p.damper != nil {
				p.damper.OnWithdraw(from, dst)
			}
			p.recompute(dst)
		}
	}
	if u.Path != nil {
		had := p.adjInGet(from, u.Dst) != noPath
		if contains(u.Path, p.node.ID()) {
			// Loop detected: treat as withdrawal (§3).
			if had {
				p.adjIn[from][u.Dst] = noPath
				if p.damper != nil {
					p.damper.OnWithdraw(from, u.Dst)
				}
				p.recompute(u.Dst)
			}
		} else {
			p.ensureDst(u.Dst)
			p.adjIn[from][u.Dst] = p.intern.intern(u.Path)
			if had && p.damper != nil {
				p.damper.OnReannounce(from, u.Dst)
			}
			p.recompute(u.Dst)
		}
	}
	p.flushAll()
}

// LinkDown implements netsim.Protocol: the session resets, discarding
// everything heard from and advertised to the neighbor.
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	p.up[neighbor] = false
	lost := p.adjIn[neighbor]
	p.adjIn[neighbor] = nil
	p.ribOut[neighbor] = nil
	p.pending[neighbor] = nil
	p.pendingCount[neighbor] = 0
	p.pendList[neighbor] = nil
	p.deadline[neighbor] = nil
	if t := p.mrai[neighbor]; t != nil {
		t.Stop()
	}
	if p.damper != nil {
		p.damper.SessionReset(neighbor)
	}
	for dst, id := range lost {
		if id != noPath {
			p.recompute(routing.NodeID(dst))
		}
	}
	p.flushAll()
}

// LinkUp implements netsim.Protocol: a fresh session; the full table is
// advertised to the neighbor.
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	p.sessionUp(neighbor)
	for dst, id := range p.best {
		if id != noPath {
			p.setPending(neighbor, routing.NodeID(dst))
		}
	}
	p.flushAll()
}

// recompute reruns best-path selection for dst: shortest valid path over
// all neighbors, ties to the lowest neighbor ID. Paths compare by intern
// ID, so "unchanged" is a single integer comparison.
func (p *Protocol) recompute(dst routing.NodeID) {
	if dst == p.node.ID() {
		return
	}
	p.node.Metrics().Inc(obs.ProtoDecisionRuns)
	chosen, chosenLen := noPath, 0
	for _, n := range p.node.Neighbors() {
		if !p.upTo(n) {
			continue
		}
		id := p.adjInGet(n, dst)
		if id == noPath {
			continue
		}
		if p.damper != nil && p.damper.Suppressed(n, dst) {
			continue
		}
		if l := p.intern.pathLen(id); chosen == noPath || l < chosenLen {
			chosen, chosenLen = id, l
		}
	}
	newBest := noPath
	if chosen != noPath {
		newBest = p.intern.prepend(p.node.ID(), chosen)
	}
	if p.bestID(dst) == newBest {
		return
	}
	p.ensureDst(dst)
	p.best[dst] = newBest
	if newBest == noPath {
		p.node.ClearRoute(dst)
	} else {
		p.node.SetRoute(dst, p.intern.path(newBest)[1])
	}
	if !p.dirty[dst] {
		p.dirty[dst] = true
		p.dirtyList = append(p.dirtyList, dst)
	}
}

// flushAll propagates all destinations dirtied by the current event to
// every up neighbor, then attempts a flush per neighbor. Only the dirty
// set is walked; its order is irrelevant because setPending just raises
// flags — everything order-sensitive (the wire) happens in flush, which
// visits pending destinations in ascending order.
func (p *Protocol) flushAll() {
	if len(p.dirtyList) > 0 {
		for _, dst := range p.dirtyList {
			p.dirty[dst] = false
			for _, n := range p.node.Neighbors() {
				if p.upTo(n) {
					p.setPending(n, dst)
				}
			}
		}
		p.dirtyList = p.dirtyList[:0]
	}
	for _, n := range p.node.Neighbors() {
		if p.upTo(n) {
			p.flush(n)
		}
	}
}

// flush sends what MRAI currently permits to one neighbor: withdrawals
// immediately (unless damped), announcements when the per-neighbor timer is
// idle (or, in per-destination mode, when each destination's deadline has
// passed).
func (p *Protocol) flush(n routing.NodeID) {
	if p.pendingCount[n] == 0 {
		return
	}
	now := p.node.Sim().Now()
	pend := p.pending[n]
	out := p.ribOut[n]

	// Classify pending destinations in ascending order. In damped-
	// withdrawal mode withdrawals queue behind MRAI like announcements, so
	// they classify straight into the announcement list (which keeps it
	// sorted — the same order the old append+sort produced).
	//
	// The walk uses the explicit pending list when it is small: the list is
	// a sorted run from the last flush plus the flips appended since, so the
	// insertion sort is nearly linear, and the visit order — ascending over
	// exactly the flagged destinations — is identical to the dense scan's.
	// A list within a factor of the table keeps the dense scan, bounding
	// the sort at the dense walk's own cost.
	withdrawals := p.wdScratch[:0]
	announcements := p.annScratch[:0]
	if pl := p.pendList[n]; len(pl)*4 <= p.ids() {
		for i := 1; i < len(pl); i++ {
			d := pl[i]
			j := i - 1
			for j >= 0 && pl[j] > d {
				pl[j+1] = pl[j]
				j--
			}
			pl[j+1] = d
		}
		for _, d := range pl {
			if pend[d] {
				withdrawals, announcements = p.classifyDst(n, d, out, withdrawals, announcements)
			}
		}
	} else {
		for dst := range pend {
			if pend[dst] {
				withdrawals, announcements = p.classifyDst(n, routing.NodeID(dst), out, withdrawals, announcements)
			}
		}
	}
	p.wdScratch, p.annScratch = withdrawals, announcements

	if len(withdrawals) > 0 {
		u := p.pool.get()
		u.Withdrawn = append(u.Withdrawn, withdrawals...)
		p.node.Metrics().Add(obs.ProtoWithdrawalsSent, uint64(len(withdrawals)))
		for _, dst := range withdrawals {
			p.node.Note(obs.KindWithdrawal, n, dst)
		}
		p.node.SendControl(n, u)
		for _, dst := range withdrawals {
			out[dst] = noPath
			p.clearPending(n, dst)
		}
	}

	if p.cfg.PerDestMRAI {
		p.flushPerDest(n, announcements, now)
	} else if !p.mrai[n].Pending() && len(announcements) > 0 {
		for _, dst := range announcements {
			p.advertise(n, dst)
		}
		p.mrai[n].Reset(p.mraiInterval())
	}

	// Rebuild the pending list. After classification, everything still
	// flagged is an announcement MRAI held back, so filtering the (sorted)
	// announcement list restores the invariant: pendList = flagged set,
	// ascending, duplicate-free.
	pl := p.pendList[n][:0]
	for _, d := range announcements {
		if pend[d] {
			pl = append(pl, d)
		}
	}
	p.pendList[n] = pl
}

// classifyDst routes one pending destination into the withdrawal or
// announcement list, or clears its flag when there is nothing to say.
func (p *Protocol) classifyDst(n, d routing.NodeID, out []pathID, withdrawals, announcements []routing.NodeID) ([]routing.NodeID, []routing.NodeID) {
	best := p.best[d]
	switch {
	case best == noPath && out[d] == noPath:
		p.clearPending(n, d) // nothing ever advertised; nothing to say
	case best == noPath:
		if p.cfg.DampWithdrawals {
			announcements = append(announcements, d)
		} else {
			withdrawals = append(withdrawals, d)
		}
	case out[d] == best:
		p.clearPending(n, d) // already current
	default:
		announcements = append(announcements, d)
	}
	return withdrawals, announcements
}

// flushPerDest sends each announcement whose (neighbor, destination)
// deadline has passed and re-arms the neighbor timer for the earliest
// remaining one.
func (p *Protocol) flushPerDest(n routing.NodeID, announcements []routing.NodeID, now time.Duration) {
	dl := p.deadline[n]
	var earliest time.Duration = -1
	for _, dst := range announcements {
		d := dl[dst]
		if now >= d {
			p.advertise(n, dst)
			dl[dst] = now + p.mraiInterval()
			continue
		}
		if earliest < 0 || d < earliest {
			earliest = d
		}
	}
	if earliest >= 0 {
		t := p.mrai[n]
		if !t.Pending() || t.Deadline() > earliest {
			t.Reset(earliest - now)
		}
	}
}

// advertise sends the current state of dst to n and records it in ribOut.
func (p *Protocol) advertise(n, dst routing.NodeID) {
	best := p.bestID(dst)
	u := p.pool.get()
	if best == noPath {
		u.Withdrawn = append(u.Withdrawn, dst)
		p.ribOut[n][dst] = noPath
		p.node.Metrics().Inc(obs.ProtoWithdrawalsSent)
		p.node.Note(obs.KindWithdrawal, n, dst)
	} else {
		u.Dst = dst
		u.Path = p.intern.path(best)
		p.ribOut[n][dst] = best
		p.node.Metrics().Inc(obs.ProtoUpdatesSent)
	}
	p.node.SendControl(n, u)
	p.clearPending(n, dst)
}

// mraiInterval draws one jittered MRAI value.
func (p *Protocol) mraiInterval() time.Duration {
	lo := p.cfg.MRAI - p.cfg.MRAIJitter
	if lo < 0 {
		lo = 0
	}
	return p.node.Jitter(lo, p.cfg.MRAI+p.cfg.MRAIJitter)
}

func contains(path []routing.NodeID, id routing.NodeID) bool {
	for _, n := range path {
		if n == id {
			return true
		}
	}
	return false
}
