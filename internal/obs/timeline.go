package obs

import (
	"bufio"
	"io"
	"strconv"
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
	Node int32
	Peer int32
	Dst  int32
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

// Append commits rs to the end of the stream. A full stream doubles its
// capacity, so a trial's records cost at most twice what they hold.
func (t *Timeline) Append(rs ...Record) {
	if n := len(*t) + len(rs); n > cap(*t) {
		grown := make(Timeline, len(*t), max(n, 2*cap(*t)))
		copy(grown, *t)
		*t = grown
	}
	*t = append(*t, rs...)
}

// WriteNDJSON renders the timeline as newline-delimited JSON, one record
// per line in stream order, per the schema in OBSERVABILITY.md. Field names
// depend on the record kind; unused fields are omitted rather than emitted
// as -1. Writing happens only here — never during the simulation. Each line
// is built in one reused buffer, so rendering allocates nothing per record.
func (t *Timeline) WriteNDJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 160)
	for i := range *t {
		line = appendNDJSON(line[:0], &(*t)[i])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendNDJSON appends r's NDJSON line, newline included, to b. Kind names
// are plain ASCII, so quoting one is enclosing it in quotes.
func appendNDJSON(b []byte, r *Record) []byte {
	b = appendInt(b, `{"t_ns":`, r.At.Nanoseconds())
	b = append(b, `,"event":"`...)
	b = append(b, kindNames[r.Kind]...)
	b = append(b, '"')
	switch r.Kind {
	case KindTrialStart:
		b = appendInt(b, `,"seed":`, r.Seed)
	case KindLinkDown, KindLinkUp, KindLinkDownDetected, KindLinkUpDetected, KindCostOut, KindCostIn:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"peer":`, int64(r.Peer))
	case KindFIBChange:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"dst":`, int64(r.Dst))
		b = appendInt(b, `,"next_hop":`, int64(r.Peer))
	case KindFIBRemove, KindFluidDemote, KindFluidAbsorb:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"dst":`, int64(r.Dst))
	case KindWithdrawal:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"neighbor":`, int64(r.Peer))
		b = appendInt(b, `,"dst":`, int64(r.Dst))
	case KindRouteFlap, KindRouteReuse:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"neighbor":`, int64(r.Peer))
		b = appendInt(b, `,"dst":`, int64(r.Dst))
		if r.Kind == KindRouteFlap {
			b = append(b, `,"state":"suppressed"`...)
		} else {
			b = append(b, `,"state":"reused"`...)
		}
	case KindFirstFIBChange, KindLastFIBChange, KindNodeDown, KindNodeUp:
		b = appendInt(b, `,"node":`, int64(r.Node))
	case KindConvergenceComplete, KindChurnEnd:
		// t_ns and event only
	case KindLinkLoss:
		b = appendInt(b, `,"node":`, int64(r.Node))
		b = appendInt(b, `,"peer":`, int64(r.Peer))
		b = appendRate(b, r.Rate)
	case KindChurnStart:
		b = appendRate(b, r.Rate)
	}
	return append(b, "}\n"...)
}

// appendInt appends key, the text before a field's value such as
// `,"node":`, and v in decimal.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendRate appends the rate field in the shortest 'g' form, which is
// what %g renders.
func appendRate(b []byte, rate float64) []byte {
	return strconv.AppendFloat(append(b, `,"rate":`...), rate, 'g', -1, 64)
}
