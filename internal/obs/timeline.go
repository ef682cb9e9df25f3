package obs

import (
	"bufio"
	"io"
	"math"
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
// run. The zero value and a nil *Timeline are empty.
//
// The stream stores records in blocks that are never moved: the first
// holds firstBlock records and every later one blockLen. A record, once
// appended, is never copied, and the storage beyond the records is at most
// one block. Each record is stored
// in 24 bytes (rec), not Record's 40.
type Timeline struct {
	blocks [][]rec // each block's length is its fill
	n      int
	// rates holds the link_loss records' rates, in stream order; each such
	// record's dst field is its index here.
	rates []float64
}

const (
	// firstBlock is the first block's length, all a short stream
	// allocates.
	firstBlock = 256
	// blockLen is the length of every later block (96 KB).
	blockLen = 4096
)

// rec is a Record as the stream stores it: the time, the kind and three
// 32-bit fields, 24 bytes. Node, Peer and Dst are stored as appended,
// except where a kind carries a 64-bit value: trial_start's seed and
// churn_start's rate, whose kinds use neither node nor peer, fill those
// two fields (high word in node), and link_loss's rate, whose kind uses
// node and peer, goes to the stream's rate list, its index in dst.
type rec struct {
	at              time.Duration
	node, peer, dst int32
	kind            Kind
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Len returns the number of records committed so far.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Append commits rs to the end of the stream. A full block is followed by
// a new one; no record already in the stream moves.
func (t *Timeline) Append(rs ...Record) {
	for i := range rs {
		k := len(t.blocks) - 1
		if k < 0 || len(t.blocks[k]) == cap(t.blocks[k]) {
			k++
			n := blockLen
			if k == 0 {
				n = firstBlock
			}
			t.blocks = append(t.blocks, make([]rec, 0, n))
		}
		t.blocks[k] = append(t.blocks[k], t.pack(&rs[i]))
	}
	t.n += len(rs)
}

// At returns record i, 0 ≤ i < Len(), with every field its kind uses as
// it was appended. Node, Peer and Dst read as appended unless they store
// the kind's seed or rate, and then read -1; Seed and Rate read 0 on the
// kinds that do not use them.
func (t *Timeline) At(i int) Record {
	if i < firstBlock {
		return t.unpack(&t.blocks[0][i])
	}
	i -= firstBlock
	return t.unpack(&t.blocks[1+i/blockLen][i%blockLen])
}

// pack returns r's stored form.
func (t *Timeline) pack(r *Record) rec {
	s := rec{at: r.At, node: r.Node, peer: r.Peer, dst: r.Dst, kind: r.Kind}
	switch r.Kind {
	case KindTrialStart:
		s.node, s.peer = split(uint64(r.Seed))
	case KindChurnStart:
		s.node, s.peer = split(math.Float64bits(r.Rate))
	case KindLinkLoss:
		s.dst = int32(len(t.rates))
		t.rates = append(t.rates, r.Rate)
	}
	return s
}

// unpack returns the record s stores.
func (t *Timeline) unpack(s *rec) Record {
	r := Record{At: s.at, Kind: s.kind, Node: s.node, Peer: s.peer, Dst: s.dst}
	switch s.kind {
	case KindTrialStart:
		r.Seed = int64(join(s.node, s.peer))
		r.Node, r.Peer = -1, -1
	case KindChurnStart:
		r.Rate = math.Float64frombits(join(s.node, s.peer))
		r.Node, r.Peer = -1, -1
	case KindLinkLoss:
		r.Rate = t.rates[s.dst]
		r.Dst = -1
	}
	return r
}

// split and join store a 64-bit value in two 32-bit fields.
func split(v uint64) (hi, lo int32) { return int32(v >> 32), int32(v) }
func join(hi, lo int32) uint64      { return uint64(uint32(hi))<<32 | uint64(uint32(lo)) }

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
	for _, blk := range t.blocks {
		for i := range blk {
			r := t.unpack(&blk[i])
			line = appendNDJSON(line[:0], &r)
			if _, err := bw.Write(line); err != nil {
				return err
			}
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
