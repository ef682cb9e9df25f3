// Package obs is the observability layer: typed zero-allocation metrics and
// an optional structured convergence timeline, threaded through the engine,
// the network substrate, every routing protocol, and the sweep orchestrator.
// The metrics are the simulator's one packet ledger and always run; the
// timeline is opt-in.
//
// The package follows the measurement-first spirit of the paper — its whole
// contribution is counting delivered, dropped, and looped packets during
// convergence — and extends that accounting to the simulator's internals:
// message load, queue occupancy, FIB churn, and per-protocol decision
// activity, uniformly named so sweep cells are comparable across runs.
//
// Both halves are strictly read-only with respect to the simulation: no
// method schedules an event or consumes randomness, so enabling them cannot
// perturb event order (the golden determinism fixtures pin this). Counting
// is a fixed-size array increment that allocates nothing (guarded by
// AllocsPerRun tests). The nil *Timeline is a fully functional no-op, so
// untraced runs pay one pointer test per record.
//
// Every metric name and timeline record schema is documented field-by-field
// in OBSERVABILITY.md at the repository root.
package obs

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

// Metrics is one simulation's counter set. All state is fixed-size, so
// every recording method is allocation-free; Snapshot (called once, at
// trial end) is the only method that allocates. A network owns one set per
// execution context from the moment it is built, so every packet fate is
// counted by exactly one increment and no hook tests for nil.
//
// Metrics is not safe for concurrent use; one instance belongs to one
// simulation, which is single-threaded by construction.
type Metrics struct {
	counters [numCounters]uint64
	// queuePeak is the maximum data-queue depth observed on any port.
	queuePeak int64
	// queueHist counts data enqueues by resulting queue depth.
	queueHist [len(queueBuckets) + 1]uint64
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds one to the counter.
func (m *Metrics) Inc(c Counter) { m.counters[c]++ }

// Add adds n to the counter.
func (m *Metrics) Add(c Counter, n uint64) { m.counters[c] += n }

// Set overwrites the counter (used for totals read once at trial end, such
// as EventsFired).
func (m *Metrics) Set(c Counter, v uint64) { m.counters[c] = v }

// Get returns the counter's current value.
func (m *Metrics) Get(c Counter) uint64 { return m.counters[c] }

// ObserveQueueDepth records one data enqueue whose resulting port queue
// depth (packets waiting, excluding the one in transmission) is depth.
func (m *Metrics) ObserveQueueDepth(depth int) {
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

// Absorb adds every counter and the queue histogram of other into m, and
// keeps the larger queue peak. It is how a sharded run folds per-shard
// counter sets into the network's root set at the end.
func (m *Metrics) Absorb(other *Metrics) {
	for c := Counter(0); c < numCounters; c++ {
		m.counters[c] += other.counters[c]
	}
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

// Snapshot freezes the counter set. The data packets still queued or on
// the wire, sent − delivered − every data drop, are emitted as
// packets.in_flight_end (clamped at zero: a negative balance is a packet-
// accounting bug that the conservation test reports explicitly) and the
// queue statistics as queue.peak and queue.depth.*.
func (m *Metrics) Snapshot() Snapshot {
	s := make(Snapshot)
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c]; v != 0 {
			s[counterNames[c]] = v
		}
	}
	inFlight := int64(m.counters[PacketsSent] - m.counters[PacketsDelivered])
	// The data-drop counters are declared contiguously.
	for c := DropNoRoute; c <= DropRandomLoss; c++ {
		inFlight -= int64(m.counters[c])
	}
	if inFlight > 0 {
		s["packets.in_flight_end"] = uint64(inFlight)
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
