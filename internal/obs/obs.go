// Package obs is the observability layer: typed zero-allocation metrics and
// an optional structured convergence timeline, threaded through the engine,
// the network substrate, every routing protocol, and the sweep orchestrator.
//
// The package follows the measurement-first spirit of the paper — its whole
// contribution is counting delivered, dropped, and looped packets during
// convergence — and extends that accounting to the simulator's internals:
// message load, queue occupancy, FIB churn, and per-protocol decision
// activity, uniformly named so sweep cells are comparable across runs.
//
// Both halves are strictly read-only with respect to the simulation: no
// method schedules an event or consumes randomness, so enabling them cannot
// perturb event order (the golden determinism fixtures pin this). The nil
// *Metrics and nil *Timeline are fully functional no-ops — every method has
// a nil-receiver fast path — so uninstrumented runs pay one pointer test
// per hook and allocate nothing (guarded by AllocsPerRun tests).
//
// Every metric name and timeline record schema is documented field-by-field
// in OBSERVABILITY.md at the repository root.
package obs

import "sort"

// Counter indexes one named monotonic counter in a Metrics set. The
// constants below are the complete universe; Snapshot maps them to their
// dotted names.
type Counter uint8

// The counter universe. Data-plane counters are maintained by
// internal/netsim; Proto* counters by the routing protocols; EventsFired by
// the harness from sim.Simulator.Fired at trial end.
const (
	// PacketsSent counts data packets injected by traffic sources.
	PacketsSent Counter = iota
	// PacketsForwarded counts forwarding decisions that queued a data
	// packet on an output port (including the injection hop).
	PacketsForwarded
	// PacketsDelivered counts data packets that reached their destination.
	PacketsDelivered
	// DropNoRoute counts data packets dropped for lack of a forwarding
	// entry (the paper's Figure 3 quantity).
	DropNoRoute
	// DropTTLExpired counts data packets that ran out of hops — in this
	// study always transient forwarding loops (Figure 4).
	DropTTLExpired
	// DropQueueOverflow counts data packets rejected by a full output
	// queue.
	DropQueueOverflow
	// DropLinkFailure counts data packets lost on a failed link before
	// detection.
	DropLinkFailure
	// DropRandomLoss counts data packets lost to a scenario-scripted lossy
	// link's per-packet random drop (netsim.SetLinkLoss).
	DropRandomLoss
	// ControlSent and ControlBytes count routing messages (and their
	// on-wire bytes) transmitted.
	ControlSent
	ControlBytes
	// ControlReceived counts routing messages delivered to a protocol.
	ControlReceived
	// ControlDropped counts routing messages lost (failed links only;
	// control traffic is exempt from queue overflow).
	ControlDropped
	// FIBChanges counts forwarding entries installed or replaced;
	// FIBRemovals counts entries deleted.
	FIBChanges
	FIBRemovals
	// EventsFired is the total number of simulator events executed.
	EventsFired
	// ProtoUpdatesSent and ProtoUpdatesReceived count protocol update
	// messages (RIP/DBF vector updates, BGP announcements).
	ProtoUpdatesSent
	ProtoUpdatesReceived
	// ProtoWithdrawalsSent counts BGP withdrawn routes sent (a batched
	// withdrawal message counts once per destination).
	ProtoWithdrawalsSent
	// ProtoDecisionRuns counts decision-process executions: RIP per-entry
	// evaluations, DBF/BGP best-path recomputations, LS SPF runs.
	ProtoDecisionRuns
	// ProtoFloodsSent and ProtoFloodsReceived count link-state flood
	// messages.
	ProtoFloodsSent
	ProtoFloodsReceived
	// ProtoSPFIncremental counts LS recomputes served by the incremental
	// SPF patch (including exact no-ops) instead of a full epoch SPF.
	ProtoSPFIncremental
	// ProtoAdvSkipped counts received distance-vector entries skipped by
	// the change-versioned fast path: the sender marked them unchanged
	// since the last exchange and the receiver's own state for them is
	// unchanged too, so reprocessing them would be a no-op.
	ProtoAdvSkipped
	// FluidSettles counts fluid-engine settlements that accounted at
	// least one packet tick analytically (netsim.FlowSet).
	FluidSettles
	// FluidDemotions and FluidReabsorptions count hybrid-mode flow state
	// transitions: fluid → packet at a forwarding change on the flow's
	// path, and packet → fluid when the guard window expires.
	FluidDemotions
	FluidReabsorptions
	// FluidDeliveredBytes and FluidDroppedBytes are the byte totals the
	// fluid evaluator accounted (packet-engine bytes are not included).
	FluidDeliveredBytes
	FluidDroppedBytes
	// ShardBarrierWaits counts lockstep window barriers in a sharded run
	// (netsim.RunSharded); zero in sequential runs.
	ShardBarrierWaits
	// ShardCrossMsgs counts packets that crossed a shard boundary through
	// the barrier inbox exchange.
	ShardCrossMsgs
	// ScenarioEvents counts scripted scenario events executed (one per
	// event, including the default failpath event).
	ScenarioEvents
	// ScenarioLinkFails counts link failures injected by scenario events
	// (explicit, group, node-incident, flap-down, and churn failures).
	ScenarioLinkFails
	// ScenarioNodeFails counts node failures injected by scenario events.
	ScenarioNodeFails
	// ScenarioChurnCycles counts churn fail/repair cycles started.
	ScenarioChurnCycles

	numCounters
)

// counterNames are the dotted metric names, indexed by Counter. They are
// the contract documented in OBSERVABILITY.md.
var counterNames = [numCounters]string{
	PacketsSent:          "packets.sent",
	PacketsForwarded:     "packets.forwarded",
	PacketsDelivered:     "packets.delivered",
	DropNoRoute:          "drops.no_route",
	DropTTLExpired:       "drops.ttl_expired",
	DropQueueOverflow:    "drops.queue_overflow",
	DropLinkFailure:      "drops.link_failure",
	DropRandomLoss:       "drops.random_loss",
	ControlSent:          "control.sent",
	ControlBytes:         "control.bytes",
	ControlReceived:      "control.received",
	ControlDropped:       "control.dropped",
	FIBChanges:           "fib.changes",
	FIBRemovals:          "fib.removals",
	EventsFired:          "events.fired",
	ProtoUpdatesSent:     "proto.updates.sent",
	ProtoUpdatesReceived: "proto.updates.received",
	ProtoWithdrawalsSent: "proto.withdrawals.sent",
	ProtoDecisionRuns:    "proto.decision_runs",
	ProtoFloodsSent:      "proto.floods.sent",
	ProtoFloodsReceived:  "proto.floods.received",
	ProtoSPFIncremental:  "proto.spf_incremental",
	ProtoAdvSkipped:      "proto.adv_skipped",
	FluidSettles:         "fluid.settles",
	FluidDemotions:       "fluid.demotions",
	FluidReabsorptions:   "fluid.reabsorptions",
	FluidDeliveredBytes:  "fluid.delivered_bytes",
	FluidDroppedBytes:    "fluid.dropped_bytes",
	ShardBarrierWaits:    "shard.barrier_waits",
	ShardCrossMsgs:       "shard.cross_msgs",
	ScenarioEvents:       "scenario.events",
	ScenarioLinkFails:    "scenario.link_fails",
	ScenarioNodeFails:    "scenario.node_fails",
	ScenarioChurnCycles:  "scenario.churn_cycles",
}

// Name returns the counter's dotted metric name.
func (c Counter) Name() string { return counterNames[c] }

// queueBuckets are the upper bounds of the queue-depth histogram buckets;
// depths above the last bound land in the overflow bucket. The paper's
// default data-queue limit is 20 packets, so the overflow bucket covers
// depths 17–20.
var queueBuckets = [...]int{1, 2, 4, 8, 16}

// queueBucketNames name the histogram buckets, including the overflow one.
var queueBucketNames = [len(queueBuckets) + 1]string{
	"queue.depth.le1", "queue.depth.le2", "queue.depth.le4",
	"queue.depth.le8", "queue.depth.le16", "queue.depth.gt16",
}

// Metrics is one trial's counter set. All state is fixed-size, so every
// recording method is allocation-free; Snapshot (called once, at trial end)
// is the only method that allocates. Methods are nil-safe: a nil *Metrics
// records nothing, which is how uninstrumented runs stay zero-overhead.
//
// Metrics is not safe for concurrent use; one instance belongs to one
// simulation, which is single-threaded by construction.
type Metrics struct {
	counters [numCounters]uint64
	// inFlight is the signed balance of data packets injected minus data
	// packets that reached a terminal event (delivery or drop). At trial
	// end it is the number of packets still queued or on the wire.
	inFlight int64
	// queuePeak is the maximum data-queue depth observed on any port.
	queuePeak int64
	// queueHist counts data enqueues by resulting queue depth.
	queueHist [len(queueBuckets) + 1]uint64
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds one to the counter.
func (m *Metrics) Inc(c Counter) {
	if m != nil {
		m.counters[c]++
	}
}

// Add adds n to the counter.
func (m *Metrics) Add(c Counter, n uint64) {
	if m != nil {
		m.counters[c] += n
	}
}

// Set overwrites the counter (used for totals read once at trial end, such
// as EventsFired).
func (m *Metrics) Set(c Counter, v uint64) {
	if m != nil {
		m.counters[c] = v
	}
}

// Get returns the counter's current value.
func (m *Metrics) Get(c Counter) uint64 {
	if m == nil {
		return 0
	}
	return m.counters[c]
}

// PacketIn records a data packet entering the network.
func (m *Metrics) PacketIn() {
	if m != nil {
		m.inFlight++
	}
}

// PacketOut records a data packet reaching a terminal event (delivered or
// dropped).
func (m *Metrics) PacketOut() {
	if m != nil {
		m.inFlight--
	}
}

// PacketInN records n data packets entering the network at once — the
// fluid engine's bulk settlement path.
func (m *Metrics) PacketInN(n uint64) {
	if m != nil {
		m.inFlight += int64(n)
	}
}

// PacketOutN records n data packets reaching terminal events at once.
func (m *Metrics) PacketOutN(n uint64) {
	if m != nil {
		m.inFlight -= int64(n)
	}
}

// InFlight returns the current in-flight data-packet balance.
func (m *Metrics) InFlight() int64 {
	if m == nil {
		return 0
	}
	return m.inFlight
}

// ObserveQueueDepth records one data enqueue whose resulting port queue
// depth (packets waiting, excluding the one in transmission) is depth.
func (m *Metrics) ObserveQueueDepth(depth int) {
	if m == nil {
		return
	}
	if int64(depth) > m.queuePeak {
		m.queuePeak = int64(depth)
	}
	for i, bound := range queueBuckets {
		if depth <= bound {
			m.queueHist[i]++
			return
		}
	}
	m.queueHist[len(queueBuckets)]++
}

// Absorb adds every counter, the in-flight balance, and the queue
// histogram of other into m, and keeps the larger queue peak. It is how a
// sharded run folds per-shard counter sets into the trial's root set at
// the end. Either receiver or argument may be nil.
func (m *Metrics) Absorb(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	for c := Counter(0); c < numCounters; c++ {
		m.counters[c] += other.counters[c]
	}
	m.inFlight += other.inFlight
	if other.queuePeak > m.queuePeak {
		m.queuePeak = other.queuePeak
	}
	for i := range m.queueHist {
		m.queueHist[i] += other.queueHist[i]
	}
}

// Snapshot is a Metrics set frozen into named values — the form that lands
// in TrialResult, sweep cell caches, and manifest.json. Zero-valued metrics
// are omitted; a missing key reads as zero.
type Snapshot map[string]uint64

// Snapshot freezes the counter set. The in-flight balance is emitted as
// packets.in_flight_end (clamped at zero: a negative balance is a packet-
// accounting bug that the conservation test reports explicitly) and the
// queue statistics as queue.peak and queue.depth.*. A nil *Metrics yields a
// nil Snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return nil
	}
	s := make(Snapshot)
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c]; v != 0 {
			s[counterNames[c]] = v
		}
	}
	if m.inFlight > 0 {
		s["packets.in_flight_end"] = uint64(m.inFlight)
	}
	if m.queuePeak > 0 {
		s["queue.peak"] = uint64(m.queuePeak)
	}
	for i, v := range m.queueHist {
		if v != 0 {
			s[queueBucketNames[i]] = v
		}
	}
	return s
}

// Merge adds every value of other into s (summing shared keys), growing s
// as needed. It is how multi-trial results and sweep cells aggregate
// per-trial snapshots.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	if len(other) == 0 {
		return s
	}
	if s == nil {
		s = make(Snapshot, len(other))
	}
	for k, v := range other {
		s[k] += v
	}
	return s
}

// Keys returns the snapshot's metric names in sorted order, for
// deterministic rendering.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
