package routing

import (
	"math"
	"math/bits"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
)

// housekeepInterval is how often a vector speaker's housekeeping runs (RIP
// route expiry, DBF neighbor liveness). The scan is an implementation
// detail; any value well under the timeout works.
const housekeepInterval = time.Second

// Hop is a row's next hop: the neighbor's rank in Node.Neighbors() — the
// index netsim's FIB stores — plus one, so that the zero Row is an empty
// one. HopSelf marks the node's own row; netsim.MaxDegree keeps every
// neighbor's Hop below it.
type Hop uint16

const (
	hopNone Hop = 0
	// HopSelf is the next hop of the node's own row.
	HopSelf Hop = math.MaxUint16
)

// RankHop returns the Hop of the neighbor at index rank of Node.Neighbors().
func RankHop(rank int) Hop { return Hop(rank + 1) }

// Row is one distance-vector table entry, packed to 8 bytes: a network
// holds n² of them, the largest allocation of a scale trial, and receive
// loops' sequential row scans stay bandwidth-friendly. The metric is 16
// bits: hop counts clamp at the configured infinity, and Init rejects an
// infinity that would not fit. The zero value is an empty row, so make is
// the table's only initialization.
type Row struct {
	// Deadline is RIP's pending timer as a housekeeping tick index (see
	// Vector.TickAfter): expiry while the route is reachable, deletion
	// while it is not (the two are never live at once). DBF leaves it zero.
	Deadline uint32
	Metric   int16
	Hop      Hop // hopNone for an empty row
}

// Valid reports whether the row holds a live entry.
func (r *Row) Valid() bool { return r.Hop != hopNone }

// Vector is the distance-vector speaker RIP and DBF share: the dense
// table, the advertisement machinery, burst staging and the broadcast
// paths. A protocol embeds it by value, passes its housekeeping to Init,
// and supplies what differs — HandleMessage (how a route is picked),
// LinkDown, and the housekeeping itself. The table is indexed by
// destination ID (node IDs are contiguous from 0) and sized once to the
// network by Start; ascending index iteration gives the same deterministic
// order a sorted key list would.
type Vector struct {
	Node *netsim.Node
	Cfg  VectorConfig
	Inf  int32 // Cfg.Infinity in the table's metric width
	Rows []Row
	// Ver is the monotone change-version clock: it advances on every
	// change to the advertised table state — metric, next hop (the poison
	// pattern of full updates depends on it), or entry liveness.
	// Advertisement bursts are stamped with it, and received stamps drive
	// the protocols' whole-chunk skips.
	Ver uint64
	// Up holds, per neighbor rank (Node.Rank), whether the link is up.
	Up  []bool
	Adv *Advertiser
	// Snd stages advertisement bursts once per broadcast into a shared
	// pooled snapshot; per-neighbor messages are index views with
	// read-time poisoned reverse (see BurstSender), so a steady-state
	// broadcast allocates nothing and copies nothing per neighbor.
	Snd BurstSender
	// changedBits flags the rows to include in the next triggered update,
	// one bit per destination, so a triggered update visits only the
	// changed routes instead of scanning the full table — the dominant cost
	// of a converging large network, where each burst touches a handful of
	// the N rows. Only valid rows carry a bit.
	changedBits []uint64
	// nlive counts valid rows, giving full-table stagings their exact
	// burst size without a counting pass.
	nlive int
	// start is the instant Start scheduled the first housekeeping run, and
	// tick the index of the latest one: run k fires at exactly
	// start + k·housekeepInterval, since each run schedules the next from
	// its own firing instant.
	start     time.Duration
	tick      uint32
	housekeep func()
}

// Init binds the speaker to a node. housekeep runs once per
// housekeepInterval after Start.
func (v *Vector) Init(node *netsim.Node, cfg VectorConfig, housekeep func()) {
	if cfg.Infinity > math.MaxInt16 {
		panic("routing: Infinity exceeds the 16-bit table metric")
	}
	v.Node, v.Cfg, v.Inf = node, cfg, int32(cfg.Infinity)
	v.housekeep = housekeep
	v.Adv = NewAdvertiser(node, &v.Cfg, v.broadcastFull, v.broadcastChanged)
}

// housekeeper is the event handler of a Vector's housekeeping runs. The
// runs recur at one fixed delay and are never cancelled, so each goes
// through the simulator's housekeepInterval lane rather than its heap.
type housekeeper Vector

func (h *housekeeper) HandleEvent(int32, any) {
	v := (*Vector)(h)
	v.tick++
	v.housekeep()
	v.Node.Sim().ScheduleFixed(housekeepInterval, h, 0, nil)
}

// Tick returns the index of the housekeeping run in progress: the k-th run
// after Start returns k.
func (v *Vector) Tick() uint32 { return v.tick }

// TickAfter returns the first housekeeping tick at or after now + d. Since
// run k fires at exactly start + k·housekeepInterval, "tick ≥ TickAfter(d)"
// at a run is the same test as "now ≥ deadline" for the instant deadline
// now + d: this is the one place a deadline is rounded. The result is at
// least 1, the first run, so 0 stays free to mean "no deadline".
func (v *Vector) TickAfter(d time.Duration) uint32 {
	since := v.Node.Sim().Now() + d - v.start
	return uint32(max(1, (since+housekeepInterval-1)/housekeepInterval))
}

// hopID is the node ID a valid row's next hop names.
func (v *Vector) hopID(h Hop) NodeID {
	if h == HopSelf {
		return v.Node.ID()
	}
	return v.Node.Neighbors()[h-1]
}

// Table returns the current metric and next hop for dst, with ok reporting
// whether a route (reachable or not) exists. Exposed for tests and tools.
func (v *Vector) Table(dst NodeID) (metric int, nextHop NodeID, ok bool) {
	rt := v.Live(dst)
	if rt == nil {
		return 0, 0, false
	}
	return int(rt.Metric), v.hopID(rt.Hop), true
}

// Live returns the valid row for dst, or nil.
func (v *Vector) Live(dst NodeID) *Row {
	if uint(dst) < uint(len(v.Rows)) && v.Rows[dst].Valid() {
		return &v.Rows[dst]
	}
	return nil
}

// Insert claims the (invalid) row for dst and returns it zeroed but for its
// next hop h.
func (v *Vector) Insert(dst NodeID, h Hop) *Row {
	v.Rows[dst] = Row{Hop: h}
	v.nlive++
	return &v.Rows[dst]
}

// Delete drops the row for dst and its changed bit; deletions leave the
// advertised table too, so the version clock advances.
func (v *Vector) Delete(dst NodeID) {
	v.Rows[dst] = Row{}
	v.changedBits[dst>>6] &^= 1 << (uint(dst) & 63)
	v.nlive--
	v.Ver++
}

// SetChanged flags the valid row for dst for the next triggered update and
// advances the version clock — every call site is a change to an
// advertised metric.
func (v *Vector) SetChanged(dst NodeID) {
	v.Ver++
	v.changedBits[dst>>6] |= 1 << (uint(dst) & 63)
}

// Start implements netsim.Protocol. Node IDs are contiguous from 0, so the
// table and its changed bitmap are sized to the network once, here, and
// the link states to the node's degree.
func (v *Vector) Start() {
	n := v.Node.NetworkSize()
	v.Rows = make([]Row, n)
	v.changedBits = make([]uint64, (n+63)/64)
	v.Insert(v.Node.ID(), HopSelf)
	v.Up = make([]bool, len(v.Node.Neighbors()))
	for r := range v.Up {
		v.Up[r] = true
	}
	v.Adv.Start()
	v.start = v.Node.Sim().Now()
	v.Node.Sim().ScheduleFixed(housekeepInterval, (*housekeeper)(v), 0, nil)
	// Announce ourselves right away so the network learns new attachments
	// without waiting a full period.
	v.broadcastFull()
}

// LinkUp implements netsim.Protocol: the restored neighbor immediately
// receives our full table (standing in for RIP's request/response exchange).
func (v *Vector) LinkUp(neighbor NodeID) {
	v.Up[v.Node.Rank(neighbor)] = true
	v.Stage(true)
	v.sendStaged(neighbor)
	v.Snd.End()
}

// broadcastFull sends the whole table to every up neighbor.
func (v *Vector) broadcastFull() { v.broadcast(true) }

// broadcastChanged sends only changed routes (a triggered update) to every
// up neighbor.
func (v *Vector) broadcastChanged() { v.broadcast(false) }

func (v *Vector) broadcast(full bool) {
	v.Stage(full)
	for r, n := range v.Node.Neighbors() {
		if v.Up[r] {
			v.sendStaged(n)
		}
	}
	v.Snd.End()
	clear(v.changedBits)
}

// Stage snapshots one advertisement burst — the whole table, or only the
// changed rows (walking the changed bitmap), in ascending destination
// order either way — into the shared pooled snapshot that all
// per-neighbor messages of this broadcast view. The burst is sized by the
// live-row count for a full and the bitmap's popcount for a triggered
// update. Next hops are staged as node IDs, the form receivers and the
// wire see. The caller ends it with Snd.End.
func (v *Vector) Stage(full bool) {
	if full {
		b := v.Snd.Begin(v.Node, v.nlive, v.Inf, v.Ver, true)
		for dst := range v.Rows {
			if rt := &v.Rows[dst]; rt.Valid() {
				b.Entries = append(b.Entries, VectorEntry{Dst: NodeID(dst), Metric: int32(rt.Metric)})
				b.NextHop = append(b.NextHop, v.hopID(rt.Hop))
			}
		}
		return
	}
	need := 0
	for _, word := range v.changedBits {
		need += bits.OnesCount64(word)
	}
	b := v.Snd.Begin(v.Node, need, v.Inf, v.Ver, false)
	for w, word := range v.changedBits {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			dst := w<<6 + bit
			rt := &v.Rows[dst]
			b.Entries = append(b.Entries, VectorEntry{Dst: NodeID(dst), Metric: int32(rt.Metric)})
			b.NextHop = append(b.NextHop, v.hopID(rt.Hop))
		}
	}
}

// sendStaged transmits the staged burst to one neighbor. With poisoned
// reverse the per-neighbor wire images differ only in poisoned metric
// values, so the messages are zero-copy views of the shared snapshot;
// plain split horizon (§4.2 ablation) omits entries instead, changing
// per-neighbor lengths, so that path materializes an explicit list.
func (v *Vector) sendStaged(to NodeID) {
	b := v.Snd.Staged()
	if len(b.Entries) == 0 {
		return
	}
	met := v.Node.Metrics()
	if v.Cfg.PoisonReverse {
		met.Add(obs.ProtoUpdatesSent, uint64(v.Snd.SendTo(v.Node, &v.Cfg, to)))
		return
	}
	entries := make([]VectorEntry, 0, len(b.Entries))
	self := v.Node.ID()
	for i, e := range b.Entries {
		if b.NextHop[i] == to && e.Dst != self {
			continue // plain split horizon: stay silent
		}
		entries = append(entries, e)
	}
	for _, msg := range v.Cfg.PackEntries(entries) {
		met.Inc(obs.ProtoUpdatesSent)
		v.Node.SendControl(to, msg)
	}
}
