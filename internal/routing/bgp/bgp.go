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
// Performance: every per-neighbor table (Adj-RIB-In, Adj-RIB-Out, pending
// flags, MRAI state, damping history) lives in a session indexed by the
// neighbor's rank in Node.Neighbors() and sized to the node's degree; its
// rows are dense slices indexed by contiguous destination ID, and every
// stored path is a 32-bit ID into the path table its execution context's
// speakers share (intern.go).
// Ascending-index iteration over the dense tables produces exactly the
// order the previous map+sort implementation produced, so trial results
// are bit-for-bit identical; see DESIGN.md's Performance section.
package bgp

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
)

// Message size model, matching the RFC 4271-shaped encoding (the test
// oracle in codec_test.go) plus 40 bytes of TCP/IP framing: a 19-byte BGP
// header and the two section-length fields; 5 bytes per withdrawn route;
// 14 bytes of attribute/NLRI overhead plus 4 bytes per path element for
// an announcement. TestWireSizeModel pins SizeBytes to len(Encode()).
const (
	bgpMarkerLen = 16
	bgpHeaderLen = bgpMarkerLen + 2 + 1
	// TCPIPOverhead is the transport framing a BGP message rides in.
	TCPIPOverhead = 40

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
// from the free list of its execution context's path table and recycled by
// the network after delivery (netsim.PooledMessage), so receivers must
// copy anything they keep; hand-built updates (tests, DecodeUpdate) are not
// pooled and Release is a no-op for them.
type Update struct {
	// Withdrawn lists destinations the sender can no longer reach.
	Withdrawn []routing.NodeID
	// Dst is the announced destination; valid only when a path is
	// announced.
	Dst routing.NodeID
	// Path is the sender's path to Dst, starting with the sender itself
	// and ending with Dst, unless id is set: then the path is id in pool,
	// the sender's path table, which a Protocol sends only to a receiver
	// that shares it.
	Path []routing.NodeID
	id   pathID
	// pool is the path table whose free list the update returns to on
	// Release; nil for hand-built updates.
	pool *pathTable
}

// SizeBytes implements netsim.Message.
func (u *Update) SizeBytes() int {
	s := headerBytes + withdrawBytes*len(u.Withdrawn)
	if l := u.pathLen(); l > 0 {
		s += announceBytes + pathElemBytes*l
	}
	return s
}

// pathLen returns the announced path's length, 0 when the update announces
// nothing.
func (u *Update) pathLen() int {
	if u.id != noPath {
		return int(u.pool.cells[u.id].len)
	}
	return len(u.Path)
}

// get returns a zeroed update, reusing a released one when available.
func (t *pathTable) get() *Update {
	if n := len(t.free); n > 0 {
		u := t.free[n-1]
		t.free = t.free[:n-1]
		return u
	}
	return &Update{pool: t}
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
	u.Path = u.Path[:0]
	u.id = noPath
	u.pool.free = append(u.pool.free, u)
}

// Protocol is a BGP speaker bound to one node.
//
// Per-destination state is dense, indexed by destination ID and sized to
// the network at Start; per-neighbor state is one session per neighbor
// rank (Node.Rank), sized to the node's degree at Start. Destinations are
// contiguous from 0 and ascending rank is ascending ID, so ascending-index
// iteration visits both in exactly the sorted order the previous map-based
// implementation produced.
type Protocol struct {
	node *netsim.Node
	cfg  Config
	// paths is the path table of the node's home execution context, which
	// every path this speaker stores or originates is an ID in.
	paths *pathTable
	// best holds the selected path per destination, starting with this
	// node (noPath = unreachable).
	best []pathID
	// sess holds the per-neighbor state, indexed by rank.
	sess []session
	// dirty flags destinations changed while processing one event;
	// dirtyList holds the same set explicitly so propagating them to the
	// neighbors' pending sets walks only what changed.
	dirty     []bool
	dirtyList []routing.NodeID
	// wdScratch/annScratch are flush's reusable classification buffers.
	wdScratch, annScratch []routing.NodeID
	// damper is non-nil when route flap damping is enabled.
	damper *damper
}

// session is the state kept for one neighbor. Its rows are indexed by
// destination and allocated once at Start; a session reset clears them.
type session struct {
	// adjIn holds the latest valid path heard per destination (noPath =
	// none). Paths that contain this node are never stored (loop =
	// withdrawal).
	adjIn []pathID
	// ribOut holds the path last advertised (noPath after a withdrawal).
	ribOut []pathID
	// pending flags destinations whose state changed since the last
	// flush; pendingCount tracks how many flags are set so an idle flush
	// is O(1). pendList mirrors the flagged set as an explicit list so a
	// flush touches only pending destinations: outside flush flags are
	// only ever set (setPending appends on each false→true flip, so the
	// list holds no duplicates), and every flush ends by rebuilding the
	// list from what stayed flagged, restoring sorted order.
	pending      []bool
	pendingCount int
	pendList     []routing.NodeID
	// deadline holds, in per-destination MRAI mode, the earliest time each
	// destination may next be advertised.
	deadline []time.Duration
	mrai     *sim.Timer
	up       bool
}

var _ netsim.Protocol = (*Protocol)(nil)

// New returns a BGP instance for the node.
func New(node *netsim.Node, cfg Config) *Protocol {
	return &Protocol{node: node, cfg: cfg}
}

// Factory returns a constructor suitable for attaching BGP to every node.
func Factory(cfg Config) func(*netsim.Node) netsim.Protocol {
	return func(n *netsim.Node) netsim.Protocol { return New(n, cfg) }
}

// rowOf returns row r of a flat table of n-wide rows.
func rowOf[T any](flat []T, r, n int) []T { return flat[r*n : (r+1)*n : (r+1)*n] }

// Start implements netsim.Protocol: the per-destination tables are sized
// to the network, and one session per neighbor opens with its rows cut
// from shared allocations.
func (p *Protocol) Start() {
	self := p.node.ID()
	n := p.node.NetworkSize()
	deg := len(p.node.Neighbors())
	p.paths = tableOf(p.node)
	p.best = make([]pathID, n)
	p.dirty = make([]bool, n)
	p.sess = make([]session, deg)
	adjIn, ribOut := make([]pathID, deg*n), make([]pathID, deg*n)
	pending := make([]bool, deg*n)
	var deadline []time.Duration
	if p.cfg.PerDestMRAI {
		deadline = make([]time.Duration, deg*n)
	}
	if p.cfg.Damping != nil {
		p.damper = newDamper(*p.cfg.Damping, p.node.Sim(), deg, n, func(_ int, dst routing.NodeID) {
			p.recompute(dst)
			p.flushAll()
		})
		p.damper.node = p.node
	}
	p.best[self] = p.paths.prepend(self, noPath)
	for r := range p.sess {
		p.sess[r] = session{
			adjIn:   rowOf(adjIn, r, n),
			ribOut:  rowOf(ribOut, r, n),
			pending: rowOf(pending, r, n),
			mrai:    sim.NewTimer(p.node.Sim(), func() { p.flush(r) }),
			up:      true,
		}
		if deadline != nil {
			p.sess[r].deadline = rowOf(deadline, r, n)
		}
		p.setPending(r, self)
	}
	p.flushAll()
}

// setPending flags dst toward the neighbor of rank r.
func (p *Protocol) setPending(r int, dst routing.NodeID) {
	if s := &p.sess[r]; !s.pending[dst] {
		s.pending[dst] = true
		s.pendingCount++
		s.pendList = append(s.pendList, dst)
	}
}

// clearPending unflags dst toward the neighbor of rank r.
func (p *Protocol) clearPending(r int, dst routing.NodeID) {
	if s := &p.sess[r]; s.pending[dst] {
		s.pending[dst] = false
		s.pendingCount--
	}
}

// HandleMessage implements netsim.Protocol. A destination outside the
// network is dropped here, so every table keeps its Start size.
func (p *Protocol) HandleMessage(from routing.NodeID, msg netsim.Message) {
	u, ok := msg.(*Update)
	if !ok {
		return
	}
	p.node.Metrics().Inc(obs.ProtoUpdatesReceived)
	r := int(p.node.Rank(from))
	s := &p.sess[r]
	if !s.up {
		return // no session (e.g. message raced a link-down detection)
	}
	n := uint(len(p.best))
	for _, dst := range u.Withdrawn {
		if uint(dst) < n {
			p.learn(r, dst, noPath)
		}
	}
	if u.pathLen() > 0 && uint(u.Dst) < n {
		id := u.id // an ID in the shared table is taken as is
		if id == noPath {
			id = p.paths.intern(u.Path)
		}
		if p.paths.contains(id, p.node.ID()) {
			id = noPath // a loop: treated as a withdrawal (§3)
		}
		p.learn(r, u.Dst, id)
	}
	p.flushAll()
}

// learn records id as the path heard from the neighbor of rank r to dst
// (noPath: a withdrawal), charges the damper for a withdrawal or a
// replaced path, and reruns selection unless there was and is no path.
func (p *Protocol) learn(r int, dst routing.NodeID, id pathID) {
	s := &p.sess[r]
	had := s.adjIn[dst] != noPath
	if !had && id == noPath {
		return
	}
	s.adjIn[dst] = id
	if p.damper != nil && id == noPath {
		p.damper.OnWithdraw(r, dst)
	} else if p.damper != nil && had {
		p.damper.OnReannounce(r, dst)
	}
	p.recompute(dst)
}

// LinkDown implements netsim.Protocol: the session resets, discarding
// everything heard from and advertised to the neighbor.
func (p *Protocol) LinkDown(neighbor routing.NodeID) {
	r := int(p.node.Rank(neighbor))
	s := &p.sess[r]
	s.up = false
	s.mrai.Stop()
	clear(s.ribOut)
	clear(s.pending)
	s.pendingCount = 0
	s.pendList = s.pendList[:0]
	clear(s.deadline)
	if p.damper != nil {
		p.damper.SessionReset(r)
	}
	// The session is down, so recompute no longer reads its Adj-RIB-In:
	// clearing it one destination at a time is the same as dropping it
	// whole before the recomputes.
	for dst, id := range s.adjIn {
		if id != noPath {
			s.adjIn[dst] = noPath
			p.recompute(routing.NodeID(dst))
		}
	}
	p.flushAll()
}

// LinkUp implements netsim.Protocol: a fresh session; the full table is
// advertised to the neighbor.
func (p *Protocol) LinkUp(neighbor routing.NodeID) {
	r := int(p.node.Rank(neighbor))
	p.sess[r].up = true
	for dst, id := range p.best {
		if id != noPath {
			p.setPending(r, routing.NodeID(dst))
		}
	}
	p.flushAll()
}

// recompute reruns best-path selection for dst: shortest valid path over
// all neighbors, ties to the lowest neighbor ID. Selection reads path
// lengths and neighbor ranks, never ID order, so how IDs are assigned
// cannot change a decision; "unchanged" is a single ID comparison.
func (p *Protocol) recompute(dst routing.NodeID) {
	if dst == p.node.ID() {
		return
	}
	p.node.Metrics().Inc(obs.ProtoDecisionRuns)
	chosen, chosenLen := noPath, int32(0)
	for r := range p.sess {
		s := &p.sess[r]
		if !s.up {
			continue
		}
		id := s.adjIn[dst]
		if id == noPath {
			continue
		}
		if p.damper != nil && p.damper.Suppressed(r, dst) {
			continue
		}
		if l := p.paths.cells[id].len; chosen == noPath || l < chosenLen {
			chosen, chosenLen = id, l
		}
	}
	newBest := noPath
	if chosen != noPath {
		newBest = p.paths.prepend(p.node.ID(), chosen)
	}
	if p.best[dst] == newBest {
		return
	}
	p.best[dst] = newBest
	if newBest == noPath {
		p.node.ClearRoute(dst)
	} else {
		p.node.SetRoute(dst, p.paths.cells[chosen].head)
	}
	if !p.dirty[dst] {
		p.dirty[dst] = true
		p.dirtyList = append(p.dirtyList, dst)
	}
}

// alwaysFlush disables flushAll's held-flush skip; tests set it to compare
// against the full flush.
var alwaysFlush bool

// flushAll propagates all destinations dirtied by the current event to
// every up neighbor, then attempts a flush per neighbor. Only the dirty
// set is walked; its order is irrelevant because setPending just raises
// flags — everything order-sensitive (the wire) happens in flush, which
// visits pending destinations in ascending order.
//
// A session whose per-neighbor MRAI timer is pending is skipped unless
// this event lost a route whose withdrawal goes out now: every flush sends
// all withdrawals, so only a destination dirtied here can be an unsent
// one. Such a flush would send nothing and draw no jitter; the flags it
// would clear are cleared from the same state when the timer fires.
// Per-destination MRAI keeps the full flush: it sends any destination
// whose own deadline has passed.
func (p *Protocol) flushAll() {
	lost := false
	for _, dst := range p.dirtyList {
		p.dirty[dst] = false
		lost = lost || p.best[dst] == noPath
		for r := range p.sess {
			if p.sess[r].up {
				p.setPending(r, dst)
			}
		}
	}
	p.dirtyList = p.dirtyList[:0]
	held := !alwaysFlush && !p.cfg.PerDestMRAI && (!lost || p.cfg.DampWithdrawals)
	for r := range p.sess {
		if s := &p.sess[r]; s.up && !(held && s.mrai.Pending()) {
			p.flush(r)
		}
	}
}

// flush sends what MRAI currently permits to the neighbor of rank r:
// withdrawals immediately (unless damped), announcements when the
// per-neighbor timer is idle (or, in per-destination mode, when each
// destination's deadline has passed).
func (p *Protocol) flush(r int) {
	s := &p.sess[r]
	if s.pendingCount == 0 {
		return
	}
	now := p.node.Sim().Now()
	to := p.node.Neighbors()[r]
	pend := s.pending
	out := s.ribOut

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
	if pl := s.pendList; len(pl)*4 <= len(p.best) {
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
				withdrawals, announcements = p.classifyDst(r, d, out, withdrawals, announcements)
			}
		}
	} else {
		for dst := range pend {
			if pend[dst] {
				withdrawals, announcements = p.classifyDst(r, routing.NodeID(dst), out, withdrawals, announcements)
			}
		}
	}
	p.wdScratch, p.annScratch = withdrawals, announcements

	if len(withdrawals) > 0 {
		u := p.paths.get()
		u.Withdrawn = append(u.Withdrawn, withdrawals...)
		p.node.Metrics().Add(obs.ProtoWithdrawalsSent, uint64(len(withdrawals)))
		for _, dst := range withdrawals {
			p.node.Note(obs.KindWithdrawal, to, dst)
		}
		p.node.SendControl(to, u)
		for _, dst := range withdrawals {
			out[dst] = noPath
			p.clearPending(r, dst)
		}
	}

	if p.cfg.PerDestMRAI {
		p.flushPerDest(r, announcements, now)
	} else if !s.mrai.Pending() && len(announcements) > 0 {
		for _, dst := range announcements {
			p.advertise(r, dst)
		}
		s.mrai.Reset(p.mraiInterval())
	}

	// Rebuild the pending list. After classification, everything still
	// flagged is an announcement MRAI held back, so filtering the (sorted)
	// announcement list restores the invariant: pendList = flagged set,
	// ascending, duplicate-free.
	pl := s.pendList[:0]
	for _, d := range announcements {
		if pend[d] {
			pl = append(pl, d)
		}
	}
	s.pendList = pl
}

// classifyDst routes one pending destination into the withdrawal or
// announcement list, or clears its flag when there is nothing to say.
func (p *Protocol) classifyDst(r int, d routing.NodeID, out []pathID, withdrawals, announcements []routing.NodeID) ([]routing.NodeID, []routing.NodeID) {
	best := p.best[d]
	switch {
	case best == noPath && out[d] == noPath:
		p.clearPending(r, d) // nothing ever advertised; nothing to say
	case best == noPath:
		if p.cfg.DampWithdrawals {
			announcements = append(announcements, d)
		} else {
			withdrawals = append(withdrawals, d)
		}
	case out[d] == best:
		p.clearPending(r, d) // already current
	default:
		announcements = append(announcements, d)
	}
	return withdrawals, announcements
}

// flushPerDest sends each announcement whose (neighbor, destination)
// deadline has passed and re-arms the neighbor timer for the earliest
// remaining one.
func (p *Protocol) flushPerDest(r int, announcements []routing.NodeID, now time.Duration) {
	dl := p.sess[r].deadline
	var earliest time.Duration = -1
	for _, dst := range announcements {
		d := dl[dst]
		if now >= d {
			p.advertise(r, dst)
			dl[dst] = now + p.mraiInterval()
			continue
		}
		if earliest < 0 || d < earliest {
			earliest = d
		}
	}
	if earliest >= 0 {
		t := p.sess[r].mrai
		if !t.Pending() || t.Deadline() > earliest {
			t.Reset(earliest - now)
		}
	}
}

// advertise sends the current state of dst to the neighbor of rank r and
// records it in the session's ribOut.
func (p *Protocol) advertise(r int, dst routing.NodeID) {
	to := p.node.Neighbors()[r]
	best := p.best[dst]
	u := p.paths.get()
	if best == noPath {
		u.Withdrawn = append(u.Withdrawn, dst)
		p.sess[r].ribOut[dst] = noPath
		p.node.Metrics().Inc(obs.ProtoWithdrawalsSent)
		p.node.Note(obs.KindWithdrawal, to, dst)
	} else {
		u.Dst = dst
		if p.node.SameHome(to) {
			u.id = best
		} else {
			u.Path = p.paths.appendPath(u.Path, best)
		}
		p.sess[r].ribOut[dst] = best
		p.node.Metrics().Inc(obs.ProtoUpdatesSent)
	}
	p.node.SendControl(to, u)
	p.clearPending(r, dst)
}

// mraiInterval draws one jittered MRAI value.
func (p *Protocol) mraiInterval() time.Duration {
	lo := p.cfg.MRAI - p.cfg.MRAIJitter
	if lo < 0 {
		lo = 0
	}
	return p.node.Jitter(lo, p.cfg.MRAI+p.cfg.MRAIJitter)
}
