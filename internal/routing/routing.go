// Package routing holds the pieces shared by the study's routing protocols
// (RIP, DBF, BGP): Vector, the distance-vector speaker RIP and DBF embed;
// distance-vector message formats, update packing, the periodic/triggered
// advertisement machinery with damping, and the configuration knobs the
// paper's §3 describes.
package routing

import (
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/sim"
)

// NodeID aliases the network node identifier.
type NodeID = netsim.NodeID

// VectorConfig parameterizes the distance-vector protocols (RIP and DBF).
// The defaults follow RFC 2453 and the paper's §3.
type VectorConfig struct {
	// PeriodicInterval is the full-table advertisement period (30 s).
	PeriodicInterval time.Duration
	// PeriodicJitter spreads consecutive periodic updates by ± this much to
	// avoid synchronization.
	PeriodicJitter time.Duration
	// Timeout expires a route (RIP) or a neighbor's cached vector (DBF)
	// that has not been refreshed (180 s).
	Timeout time.Duration
	// GCTime keeps an unreachable route advertised at infinity before it
	// is deleted (120 s).
	GCTime time.Duration
	// DampMin and DampMax bound the random triggered-update damping timer
	// (1–5 s).
	DampMin, DampMax time.Duration
	// Infinity is the unreachable metric (16).
	Infinity int
	// MaxEntries is the number of route entries per update message (25).
	MaxEntries int
	// HeaderBytes and EntryBytes set message sizes: a RIP packet is a
	// 4-byte header plus 20 bytes per entry, carried in UDP/IP.
	HeaderBytes, EntryBytes int
	// TriggeredUpdates enables immediate (damped) updates on route change.
	// Disabling it is an ablation (§4.3): only periodic updates remain.
	TriggeredUpdates bool
	// PoisonReverse enables split horizon with poisoned reverse.
	// Disabling it is an ablation (§4.2): plain split horizon is used.
	PoisonReverse bool
	// ECMP makes DBF install every neighbor achieving the minimum metric
	// as an equal-cost multipath set (an extension, off by default). Only
	// DBF's recompute reads it; the shared Vector core and RIP, which
	// keeps a single route by design, ignore it.
	ECMP bool
}

// DefaultVectorConfig returns the RFC 2453 parameters used in the paper.
func DefaultVectorConfig() VectorConfig {
	return VectorConfig{
		PeriodicInterval: 30 * time.Second,
		PeriodicJitter:   time.Second,
		Timeout:          180 * time.Second,
		GCTime:           120 * time.Second,
		DampMin:          time.Second,
		DampMax:          5 * time.Second,
		Infinity:         16,
		MaxEntries:       25,
		HeaderBytes:      32,
		EntryBytes:       20,
		TriggeredUpdates: true,
		PoisonReverse:    true,
	}
}

// VectorEntry is one destination/metric pair in a distance-vector update.
// The metric is 32 bits (infinity is 16): at internet scale the entry
// slices of in-flight updates are the dominant transient allocation, and
// the narrow field halves them.
type VectorEntry struct {
	Dst    NodeID
	Metric int32
}

// VectorUpdate is a RIP/DBF update message: up to MaxEntries entries. It
// comes in two forms. An explicit update carries its own Entries slice
// (PackEntries, the wire decoder, and hand-built test messages). A
// burst-backed update instead views an index range of a shared Burst
// snapshot and applies split horizon with poisoned reverse at read time;
// receivers must therefore iterate with Len and EntryAt, which handle both
// forms. Burst-backed shells are pooled: the network releases each one
// exactly once when its flight ends (netsim.PooledMessage), so receivers
// must not retain them past HandleMessage.
type VectorUpdate struct {
	Entries []VectorEntry
	burst   *Burst
	start   int32
	end     int32
	to      NodeID // receiving neighbor, the poisoned-reverse target
	header  int
	entry   int
}

var _ netsim.PooledMessage = (*VectorUpdate)(nil)

// Len returns the number of entries carried.
func (u *VectorUpdate) Len() int {
	if u.burst != nil {
		return int(u.end - u.start)
	}
	return len(u.Entries)
}

// EntryAt returns entry i as it appears on the wire for this update's
// receiver: burst-backed entries whose staged next hop is the receiver are
// poisoned to infinity (split horizon with poisoned reverse), except the
// sender's own self-route.
func (u *VectorUpdate) EntryAt(i int) VectorEntry {
	if b := u.burst; b != nil {
		j := int(u.start) + i
		e := b.Entries[j]
		if b.NextHop[j] == u.to && e.Dst != b.Origin {
			e.Metric = b.Inf
		}
		return e
	}
	return u.Entries[i]
}

// Burst returns the shared snapshot backing this update, or nil for an
// explicit update.
func (u *VectorUpdate) Burst() *Burst { return u.burst }

// View exposes the update for tight receive loops without per-entry call
// overhead: entries[i] pairs with nextHop[i], and the receiver must read
// an entry at metric inf when its staged next hop is the receiver itself
// and its destination is not origin (the poisoning EntryAt applies).
// Explicit updates return a nil nextHop: entries are already literal.
func (u *VectorUpdate) View() (entries []VectorEntry, nextHop []NodeID, origin NodeID, inf int32) {
	if b := u.burst; b != nil {
		return b.Entries[u.start:u.end], b.NextHop[u.start:u.end], b.Origin, b.Inf
	}
	return u.Entries, nil, 0, 0
}

// LastChunk reports whether this is the final chunk of its burst — the
// point at which a receiver has seen the whole snapshot (links deliver
// in order).
func (u *VectorUpdate) LastChunk() bool {
	return u.burst != nil && int(u.end) == len(u.burst.Entries)
}

// Release implements netsim.PooledMessage: burst-backed shells return to
// the pool their snapshot came from and drop their snapshot reference.
// Explicit updates (no burst) are unpooled and unaffected, so tests may
// hold them across deliveries.
func (u *VectorUpdate) Release() {
	b := u.burst
	if b == nil {
		return
	}
	pl := b.pool
	*u = VectorUpdate{}
	pl.putShell(u)
	b.Release()
}

// SizeBytes implements netsim.Message.
func (u *VectorUpdate) SizeBytes() int { return u.header + u.entry*u.Len() }

// PackEntries splits entries into update messages holding at most
// cfg.MaxEntries each.
func (cfg *VectorConfig) PackEntries(entries []VectorEntry) []*VectorUpdate {
	var out []*VectorUpdate
	for len(entries) > 0 {
		n := cfg.MaxEntries
		if n > len(entries) {
			n = len(entries)
		}
		out = append(out, &VectorUpdate{
			Entries: entries[:n:n],
			header:  cfg.HeaderBytes,
			entry:   cfg.EntryBytes,
		})
		entries = entries[n:]
	}
	return out
}

// Advertiser drives the periodic full-table updates and the damped
// triggered updates shared by RIP and DBF (§3, §4.3). Its owner (Vector)
// supplies the two broadcast callbacks.
type Advertiser struct {
	cfg  *VectorConfig
	node *netsim.Node
	full func() // send the full table to every up neighbor
	chg  func() // send only changed routes to every up neighbor

	periodic *sim.Timer
	damp     *sim.Timer
	pending  bool
}

// NewAdvertiser returns an Advertiser; full and changed must be non-nil.
// Jitter is drawn from the node's private random stream, so the advertiser's
// timing does not depend on the global draw order (a sharded-run invariant).
func NewAdvertiser(node *netsim.Node, cfg *VectorConfig, full, changed func()) *Advertiser {
	a := &Advertiser{cfg: cfg, node: node, full: full, chg: changed}
	a.periodic = sim.NewTimer(node.Sim(), a.onPeriodic)
	a.damp = sim.NewTimer(node.Sim(), a.onDampExpired)
	return a
}

// Start schedules the first periodic update at a uniformly random phase
// within one period, so that routers' periodic announcements are unaligned
// (as on a real network — this phase is what RIP's recovery time in
// Figure 3 hinges on).
func (a *Advertiser) Start() {
	a.periodic.Reset(a.node.Jitter(0, a.cfg.PeriodicInterval))
}

// RouteChanged notes that at least one route changed and schedules a
// triggered update after the random 1–5 s damping interval; changes
// arriving while the timer runs coalesce into that one update. This is the
// paper's damping semantics (§5.3: after a failure, DBF's throughput
// recovery begins about one second later and completes within the 5 s
// damping bound — one damped triggered-update hop).
func (a *Advertiser) RouteChanged() {
	if !a.cfg.TriggeredUpdates {
		return
	}
	a.pending = true
	a.damp.ResetIfStopped(a.node.Jitter(a.cfg.DampMin, a.cfg.DampMax))
}

func (a *Advertiser) onDampExpired() {
	if !a.pending {
		return
	}
	a.pending = false
	a.chg()
}

func (a *Advertiser) onPeriodic() {
	a.full()
	// A full update covers any pending triggered update.
	a.pending = false
	next := a.cfg.PeriodicInterval
	if j := a.cfg.PeriodicJitter; j > 0 {
		lo := next - j
		if lo < 0 {
			lo = 0
		}
		next = a.node.Jitter(lo, next+j)
	}
	a.periodic.Reset(next)
}
