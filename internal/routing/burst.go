package routing

import (
	"fmt"
	"math/bits"

	"routeconv/internal/netsim"
)

// Burst is one staged advertisement snapshot, shared by every neighbor's
// update messages of a single broadcast. Under poisoned reverse the entry
// list sent to each neighbor differs only in metric values (poisoned
// entries keep their slot), so instead of materializing a per-neighbor
// copy the messages carry index ranges into this shared snapshot and apply
// the poison at read time. The refcount keeps the snapshot alive until the
// last in-flight message is released; in sharded runs every release is
// funneled through the owner's shard or the coordinator barrier (see
// netsim's releasePooled), so the plain int is race-free.
type Burst struct {
	Entries []VectorEntry // staged routes, ascending destination
	NextHop []NodeID      // parallel: next hop at staging (poison input)
	Origin  NodeID        // the advertising node
	Inf     int32         // poison metric
	Ver     uint64        // sender's change-version clock at staging
	Full    bool          // snapshot covers the sender's whole table
	refs    int
	pool    *burstPool
}

// Retain adds one reference (one in-flight message view).
func (b *Burst) Retain() { b.refs++ }

// Release drops one reference; the last one hands the entry storage and the
// emptied header back to the pool they were drawn from. The storage's next
// user is any node of the same execution context, so a release too many
// would alias two nodes' advertisements: it panics instead.
func (b *Burst) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic(fmt.Sprintf("routing: node %d: burst released more often than retained", b.Origin))
	}
	b.pool.putBurst(b)
}

// burstStore is a burst's entry storage, filed as one unit: both slices
// have the same capacity.
type burstStore struct {
	entries []VectorEntry
	nextHop []NodeID
}

const (
	// burstMinClass is the smallest storage class, 1<<burstMinClass entries.
	burstMinClass = 3
	// burstClassBytes bounds the storage one class keeps on its free list;
	// past it, returned storage is left to the garbage collector. A burst
	// lives for about one serialization plus one link delay, so the lists
	// only have to cover what is in flight at once.
	burstClassBytes = 1 << 22
	// burstShellMax bounds the header and VectorUpdate shell free lists.
	burstShellMax = 4096
	// burstEntryBytes is one staged entry's storage: a VectorEntry and its
	// next hop.
	burstEntryBytes = 12
)

// burstPool holds the free lists behind burst-backed advertisements for
// every node of one execution context (netsim.Node.MessagePool): entry
// storage filed by power-of-two capacity class and handed out by need, so
// a small triggered update never walks off with a table-sized buffer, plus
// the detached Burst headers and the VectorUpdate shells. Every list is
// capped, and the pool dies with its context, so a trial's memory follows
// what is in flight rather than nodes times table size. The owning
// context's goroutine is the only one that touches it.
type burstPool struct {
	classes [32][]burstStore // classes[c] holds capacities in [1<<c, 2<<c)
	headers []*Burst
	shells  []*VectorUpdate
}

// poolOf returns the burst pool of the node's home execution context,
// creating it on first use.
func poolOf(node *netsim.Node) *burstPool {
	slot := node.MessagePool()
	if pl, ok := (*slot).(*burstPool); ok {
		return pl
	}
	pl := &burstPool{}
	*slot = pl
	return pl
}

// pop removes and returns the last element of a free list.
func pop[T any](list *[]T) (v T, ok bool) {
	l := *list
	if len(l) == 0 {
		return v, false
	}
	var zero T
	v, l[len(l)-1] = l[len(l)-1], zero
	*list = l[:len(l)-1]
	return v, true
}

// takeBurst returns an empty burst with room for need entries and one
// reference held.
func (pl *burstPool) takeBurst(need int) *Burst {
	b, ok := pop(&pl.headers)
	if !ok {
		b = &Burst{pool: pl}
	}
	c := burstMinClass
	if need > 1<<burstMinClass {
		c = bits.Len(uint(need - 1))
	}
	if st, ok := pop(&pl.classes[c]); ok {
		b.Entries, b.NextHop = st.entries, st.nextHop
	} else {
		b.Entries = make([]VectorEntry, 0, 1<<c)
		b.NextHop = make([]NodeID, 0, 1<<c)
	}
	b.refs = 1
	return b
}

// putBurst detaches an unreferenced burst's storage and files both parts.
// Storage is classed by the capacity it actually has, so a stager that
// appended past its stated need files the regrown buffer correctly. The
// header keeps its origin, for Release's diagnosis of a stale pointer.
func (pl *burstPool) putBurst(b *Burst) {
	c := bits.Len(uint(min(cap(b.Entries), cap(b.NextHop)))) - 1
	if len(pl.classes[c]) < max(1, burstClassBytes/(burstEntryBytes<<c)) {
		pl.classes[c] = append(pl.classes[c], burstStore{entries: b.Entries[:0], nextHop: b.NextHop[:0]})
	}
	*b = Burst{pool: pl, Origin: b.Origin}
	if len(pl.headers) < burstShellMax {
		pl.headers = append(pl.headers, b)
	}
}

// takeShell returns a zeroed VectorUpdate.
func (pl *burstPool) takeShell() *VectorUpdate {
	if u, ok := pop(&pl.shells); ok {
		return u
	}
	return &VectorUpdate{}
}

// putShell files a zeroed shell.
func (pl *burstPool) putShell(u *VectorUpdate) {
	if len(pl.shells) < burstShellMax {
		pl.shells = append(pl.shells, u)
	}
}

// BurstSender is one protocol instance's staging cursor for burst-backed
// advertisement sends. Bursts and message shells are drawn from the pool of
// the node's home execution context, so a steady-state broadcast allocates
// nothing. The zero value is ready to use.
type BurstSender struct {
	cur *Burst
}

// Begin starts staging a broadcast of need entries from node: it returns an
// empty burst (the caller appends to Entries and NextHop in ascending
// destination order) stamped with the sender's identity, poison metric,
// version clock, and whether the snapshot is a full table. Stagers know
// their entry count up front (a live-route counter for fulls, a changed-bit
// popcount for triggered updates); the pool sizes the storage from it. The
// sender holds a guard reference until End.
func (s *BurstSender) Begin(node *netsim.Node, need int, inf int32, ver uint64, full bool) *Burst {
	b := poolOf(node).takeBurst(need)
	b.Origin, b.Inf, b.Ver, b.Full = node.ID(), inf, ver, full
	s.cur = b
	return b
}

// Staged returns the burst currently being staged (between Begin and End).
func (s *BurstSender) Staged() *Burst { return s.cur }

// view builds one pooled chunk message over [start, end) addressed to a
// neighbor.
func (s *BurstSender) view(cfg *VectorConfig, to NodeID, start, end int) *VectorUpdate {
	u := s.cur.pool.takeShell()
	u.burst, u.to = s.cur, to
	u.start, u.end = int32(start), int32(end)
	u.header, u.entry = cfg.HeaderBytes, cfg.EntryBytes
	s.cur.Retain()
	return u
}

// SendTo transmits the staged burst to one neighbor as chunked view
// messages (at most cfg.MaxEntries entries each — the same packing as
// PackEntries) and returns the number of messages sent.
func (s *BurstSender) SendTo(node *netsim.Node, cfg *VectorConfig, to NodeID) int {
	total := len(s.cur.Entries)
	sent := 0
	for start := 0; start < total; start += cfg.MaxEntries {
		end := start + cfg.MaxEntries
		if end > total {
			end = total
		}
		node.SendControl(to, s.view(cfg, to, start, end))
		sent++
	}
	return sent
}

// End releases the sender's guard reference taken by Begin. Messages still
// in flight keep the snapshot alive through their own references.
func (s *BurstSender) End() {
	s.cur.Release()
	s.cur = nil
}
