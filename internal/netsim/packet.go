// Package netsim is the packet-level network substrate: nodes with
// forwarding tables, duplex links with serialization and propagation delay
// and finite FIFO queues, hop-by-hop forwarding with TTL, failure
// injection, and per-cause drop accounting. It replaces the IRLSim
// simulator used by the paper.
package netsim

import (
	"fmt"
	"time"

	"routeconv/internal/obs"
	"routeconv/internal/topology"
)

// NodeID identifies a node in the network. It is shared with the topology
// package so graphs map directly onto networks.
type NodeID = topology.NodeID

// DropReason classifies why a packet was lost. The paper's figures depend
// on distinguishing no-route drops (Figure 3) from TTL expirations caused
// by transient loops (Figure 4).
type DropReason int

// Drop reasons, in the order the forwarding path checks them.
const (
	// DropNoRoute: the node had no forwarding entry for the destination —
	// the path switch-over period of §4.1.
	DropNoRoute DropReason = iota + 1
	// DropTTLExpired: the packet ran out of hops, in this study always due
	// to a transient forwarding loop (§5.2).
	DropTTLExpired
	// DropQueueOverflow: the output port's finite data queue was full.
	DropQueueOverflow
	// DropLinkFailure: the packet was transmitted onto a failed link before
	// the failure was detected.
	DropLinkFailure
	// DropRandomLoss: the packet lost a per-packet Bernoulli draw on a
	// scenario-scripted lossy link (SetLinkLoss). Unlike the other causes
	// it hits control traffic too — lossy links break the reliable
	// control-channel assumption on purpose.
	DropRandomLoss
	// numDropReasons sizes arrays indexed by DropReason (reasons start at 1).
	numDropReasons = iota + 1
)

// String returns a short human-readable name for the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no-route"
	case DropTTLExpired:
		return "ttl-expired"
	case DropQueueOverflow:
		return "queue-overflow"
	case DropLinkFailure:
		return "link-failure"
	case DropRandomLoss:
		return "random-loss"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Message is a routing-protocol payload carried in a control packet. Its
// size determines the packet's serialization delay.
type Message interface {
	// SizeBytes returns the on-wire size of the message, including
	// transport overhead.
	SizeBytes() int
}

// PooledMessage is a Message drawn from a sender-owned free list. The
// network hands the message back (Release) exactly once, as soon as its
// flight ends: after the receiving protocol's HandleMessage returns, or
// when the carrying packet is lost on a failed link. Protocols and
// observers must therefore not retain a received message — or any storage
// it owns — beyond the delivery call; anything worth keeping must be
// copied out (BGP interns received paths, LS copies the LSA value).
type PooledMessage interface {
	Message
	// Release returns the message to its owner's free list.
	Release()
}

// Packet is a unit of transmission, either a data packet or a link-local
// control packet carrying a routing Message.
//
// The network owns every packet and recycles it the moment its flight ends
// — delivered, consumed by the receiving protocol, or dropped — so a
// *Packet handed to an Observer or seen by model code is valid only for the
// duration of that call. Copy the struct, and clone Trace, to keep anything.
type Packet struct {
	// ID is unique per network, in send order.
	ID uint64
	// Src and Dst are the originating and destination nodes. For control
	// packets Dst is the neighbor the message is addressed to.
	Src, Dst NodeID
	// TTL is the remaining hop budget; decremented at each forwarding hop.
	TTL int
	// Size is the on-wire size in bytes.
	Size int
	// Payload is non-nil for control packets.
	Payload Message
	// Created is the virtual time the packet entered the network.
	Created time.Duration
	// HopCount is the number of forwarding hops taken so far.
	HopCount int
	// Trace records the nodes visited, when Config.RecordHops is set.
	Trace []NodeID
}

// Control reports whether the packet carries a routing message.
func (p *Packet) Control() bool { return p.Payload != nil }

// Observer receives simulation events: the one event stream out of the
// network. A trial has exactly one, the trial recorder (trace.Collector),
// which keeps the flows' records and the convergence timeline. All methods are called synchronously from the event loop, or from
// a sharded run's barrier replay in the same merged order as every other
// event. Implementations must not retain the packet, nor its Trace slice or
// Payload, past the call: the packet is zeroed and reused for a later send
// as soon as the callback returns (see Packet).
type Observer interface {
	// RouteChanged fires when a node's forwarding entry for dst changes.
	// removed means the entry was deleted; otherwise nextHop is the new
	// next hop.
	RouteChanged(at time.Duration, node, dst, nextHop NodeID, removed bool)
	// PacketDelivered fires when a data packet reaches its destination.
	PacketDelivered(at time.Duration, pkt *Packet)
	// PacketDropped fires when any packet is lost, with the node that lost
	// it and the cause.
	PacketDropped(at time.Duration, where NodeID, pkt *Packet, reason DropReason)
	// Note fires for every convergence-timeline event that is not a FIB
	// change: link and node state changes, link loss, cost-out/in,
	// protocol withdrawals and damping transitions, fluid demotions, and
	// the harness's churn windows.
	Note(r obs.Record)
}

// RouteFilter is an Observer that needs only some destinations' RouteChanged
// events one by one. A sharded run asks it once (EnableSharding), buffers and
// replays only the watched destinations' events, and reports the rest in
// bulk at each window barrier. A plain Observer watches every destination;
// sequential runs deliver every event and never call these methods.
type RouteFilter interface {
	Observer
	// WatchesRoutes reports whether RouteChanged events toward dst must be
	// delivered individually. Only watched destinations' forwarding entries
	// are replayed, so an observer must watch every destination it walks
	// toward from a callback. The answer must not change during a run.
	WatchesRoutes(dst NodeID) bool
	// RoutesElided accounts n route changes toward unwatched destinations
	// that were not delivered; last is the time of the latest of them, which
	// may lie before events already delivered.
	RoutesElided(n int, last time.Duration)
}

// NopObserver is an Observer that ignores every event. Embed it to
// implement only the events of interest.
type NopObserver struct{}

// RouteChanged implements Observer.
func (NopObserver) RouteChanged(time.Duration, NodeID, NodeID, NodeID, bool) {}

// PacketDelivered implements Observer.
func (NopObserver) PacketDelivered(time.Duration, *Packet) {}

// PacketDropped implements Observer.
func (NopObserver) PacketDropped(time.Duration, NodeID, *Packet, DropReason) {}

// Note implements Observer.
func (NopObserver) Note(obs.Record) {}

var _ Observer = NopObserver{}
