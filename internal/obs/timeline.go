package obs

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// Kind identifies one timeline record type. The string forms (see
// kindNames) are the `event` field of the NDJSON schema documented in
// OBSERVABILITY.md.
type Kind uint8

const (
	// KindTrialStart opens a timeline: one record carrying the trial seed.
	KindTrialStart Kind = iota
	// KindLinkDown and KindLinkUp mark the physical state change of the
	// link Node–Peer; KindLinkDownDetected / KindLinkUpDetected mark the
	// (later) moment the endpoints' protocols are notified.
	KindLinkDown
	KindLinkUp
	KindLinkDownDetected
	KindLinkUpDetected
	// KindFIBChange records node Node (re)pointing its forwarding entry
	// for Dst at next hop Peer; KindFIBRemove records the entry's
	// deletion (Peer is -1).
	KindFIBChange
	KindFIBRemove
	// KindWithdrawal records a BGP speaker (Node) sending neighbor Peer a
	// withdrawal for Dst.
	KindWithdrawal
	// KindRouteFlap records flap damping suppressing the route to Dst
	// learned from neighbor Peer at node Node; KindRouteReuse records the
	// suppression timer releasing it.
	KindRouteFlap
	KindRouteReuse
	// KindFirstFIBChange / KindLastFIBChange close a timeline: per node,
	// the first and last FIB event at or after the failure.
	KindFirstFIBChange
	KindLastFIBChange
	// KindConvergenceComplete closes a timeline: the time of the last FIB
	// event anywhere at or after the failure.
	KindConvergenceComplete
	// KindFluidDemote records the hybrid traffic engine demoting the
	// Node→Dst flow class to packet-level simulation after a forwarding
	// change on its path; KindFluidAbsorb records its return to the
	// fluid once the guard window expires.
	KindFluidDemote
	KindFluidAbsorb
	// KindNodeDown and KindNodeUp mark a scenario-scripted node failure
	// and recovery of Node (its incident link events are logged
	// separately as link_down/link_up records).
	KindNodeDown
	KindNodeUp
	// KindLinkLoss records the Node–Peer link's random packet-loss
	// probability being set to Rate (0 clears it).
	KindLinkLoss
	// KindCostOut and KindCostIn mark the graceful maintenance events on
	// the Node–Peer link: protocols are notified immediately while the
	// link keeps carrying packets.
	KindCostOut
	KindCostIn
	// KindChurnStart and KindChurnEnd bracket a scripted churn window;
	// the start record carries the failure arrival Rate.
	KindChurnStart
	KindChurnEnd

	numKinds
)

var kindNames = [numKinds]string{
	KindTrialStart:          "trial_start",
	KindLinkDown:            "link_down",
	KindLinkUp:              "link_up",
	KindLinkDownDetected:    "link_down_detected",
	KindLinkUpDetected:      "link_up_detected",
	KindFIBChange:           "fib_change",
	KindFIBRemove:           "fib_remove",
	KindWithdrawal:          "withdrawal",
	KindRouteFlap:           "route_flap",
	KindRouteReuse:          "route_reuse",
	KindFirstFIBChange:      "fib_first_change",
	KindLastFIBChange:       "fib_last_change",
	KindConvergenceComplete: "convergence_complete",
	KindFluidDemote:         "fluid_demote",
	KindFluidAbsorb:         "fluid_absorb",
	KindNodeDown:            "node_down",
	KindNodeUp:              "node_up",
	KindLinkLoss:            "link_loss",
	KindCostOut:             "cost_out",
	KindCostIn:              "cost_in",
	KindChurnStart:          "churn_start",
	KindChurnEnd:            "churn_end",
}

// String returns the record type's NDJSON `event` value.
func (k Kind) String() string { return kindNames[k] }

// Record is one timeline event. Node/Peer/Dst are topology node IDs whose
// meaning depends on Kind (see the Kind constants); -1 marks a field the
// kind does not use. Seed is set only on KindTrialStart.
type Record struct {
	At   time.Duration
	Kind Kind
	Node int
	Peer int
	Dst  int
	Seed int64
	// Rate is set only on KindLinkLoss (the loss probability) and
	// KindChurnStart (failures per second).
	Rate float64
}

// Timeline is one trial's committed convergence record stream, as the
// trial recorder (trace.Collector) writes it: instant by instant in
// canonical order, then the convergence summary. The Timeline itself only
// holds and renders the records — WriteNDJSON formats them once, after the
// run. A nil *Timeline is empty.
type Timeline []Record

// NewTimeline returns an empty timeline with room for a typical trial.
func NewTimeline() *Timeline {
	t := make(Timeline, 0, 256)
	return &t
}

// Len returns the number of records committed so far.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(*t)
}

// WriteNDJSON renders the timeline as newline-delimited JSON, one record
// per line in stream order, per the schema in OBSERVABILITY.md. Field names
// depend on the record kind; unused fields are omitted rather than emitted
// as -1. Writing happens only here — never during the simulation.
func (t *Timeline) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, r := range *t {
		var err error
		switch r.Kind {
		case KindTrialStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"seed":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Seed)
		case KindLinkDown, KindLinkUp, KindLinkDownDetected, KindLinkUpDetected, KindCostOut, KindCostIn:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer)
		case KindFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d,"next_hop":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst, r.Peer)
		case KindFIBRemove:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindWithdrawal:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		case KindRouteFlap, KindRouteReuse:
			state := "suppressed"
			if r.Kind == KindRouteReuse {
				state = "reused"
			}
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"neighbor":%d,"dst":%d,"state":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst, state)
		case KindFirstFIBChange, KindLastFIBChange:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindConvergenceComplete:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		case KindFluidDemote, KindFluidAbsorb:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Dst)
		case KindNodeDown, KindNodeUp:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node)
		case KindLinkLoss:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Rate)
		case KindChurnStart:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"rate":%g}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Rate)
		case KindChurnEnd:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind])
		default:
			_, err = fmt.Fprintf(bw, `{"t_ns":%d,"event":%q,"node":%d,"peer":%d,"dst":%d}`+"\n",
				r.At.Nanoseconds(), kindNames[r.Kind], r.Node, r.Peer, r.Dst)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
