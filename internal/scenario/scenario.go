// Package scenario is the composable failure/churn event-script layer: a
// declarative, time-ordered list of typed disturbance events. A script is
// the only representation of a trial's disturbances; the paper's single
// on-path failure is the one-event script "failpath @FailAt".
//
// A Script is parsed from the compact text grammar (Parse; full reference
// in SCENARIOS.md at the repository root), e.g.
//
//	fail link 3-7 @400s; loss link 1-2 p=0.01 @410s; churn links rate=0.1/s @450s..600s
//
// The package is a pure description layer — it imports only the topology
// vocabulary and never touches the simulator — so scripts canonicalize
// cleanly into sweep cache keys and validate without running anything.
// Execution lives in internal/core, which schedules each event on the trial
// simulator; KindFailPath and KindFailRandom run the harness's original
// failure code, so the golden fixtures pinned before scripts existed still
// hold bit-for-bit.
package scenario

import (
	"fmt"
	"math"
	"strings"
	"time"

	"routeconv/internal/topology"
)

// Kind identifies one event type in a script.
type Kind int

// The event kinds. Zero is invalid so an uninitialized Event fails loudly.
const (
	// KindFailLink takes every link in Links down at At; several links fail
	// as one correlated group (a shared-risk link group).
	KindFailLink Kind = iota + 1
	// KindRestoreLink brings every link in Links back up at At.
	KindRestoreLink
	// KindFailNode fails Node at At: every incident link that is up goes
	// down (a shared-fate group of the node's ports).
	KindFailNode
	// KindRecoverNode recovers Node at At: the links its failure took down
	// come back up, except those still held down by another failed node.
	KindRecoverNode
	// KindFlapLink flaps Links[0] for Cycles cycles of length Period
	// starting at At: cycle i fails at At+i·Period and restores half a
	// period later, so the link ends the storm up.
	KindFlapLink
	// KindSetLoss sets the random packet-loss probability of Links[0] to
	// Rate at At (both directions, control and data traffic alike).
	// Rate 0 clears a previous setting.
	KindSetLoss
	// KindCostOut gracefully costs Links[0] out of service at At: the
	// endpoints' protocols are notified immediately (no detection delay)
	// while the link keeps carrying in-flight and queued packets.
	KindCostOut
	// KindCostIn returns a costed-out Links[0] to service at At.
	KindCostIn
	// KindChurn runs seeded continuous churn from At to Until over Links
	// (all router links when empty): link failures arrive as a Poisson
	// process of Rate failures/second, each victim drawn uniformly from
	// the currently-up candidates and repaired after an exponential
	// downtime of mean MeanDown.
	KindChurn
	// KindFailPath is the paper's original event: at At, fail one random
	// recoverable link on the measured flow's forwarding path, with the
	// optional Restore/Flaps repair-and-flap schedule. A config without a
	// script runs exactly this event at its FailAt.
	KindFailPath
	// KindFailRandom fails one random currently-up router link at At (the
	// §6 multiple-failure extension).
	KindFailRandom
)

// kindNames are the grammar keywords, indexed by Kind.
var kindNames = map[Kind]string{
	KindFailLink:    "fail link",
	KindRestoreLink: "restore link",
	KindFailNode:    "fail node",
	KindRecoverNode: "recover node",
	KindFlapLink:    "flap link",
	KindSetLoss:     "loss link",
	KindCostOut:     "costout link",
	KindCostIn:      "costin link",
	KindChurn:       "churn links",
	KindFailPath:    "failpath",
	KindFailRandom:  "failrandom",
}

// String returns the event kind's grammar keyword.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scripted disturbance. Which fields are meaningful depends on
// Kind (see the Kind constants); unused fields are zero.
type Event struct {
	// At is when the event fires (simulation time).
	At time.Duration
	// Kind selects the event type.
	Kind Kind
	// Links are the target links (one entry for single-link kinds; the
	// candidate set for KindChurn, where empty means all router links).
	Links []topology.Edge
	// Node is the target of the node kinds; -1 otherwise.
	Node topology.NodeID
	// Rate is the loss probability (KindSetLoss, in [0,1]) or the churn
	// failure arrival rate (KindChurn, failures per second).
	Rate float64
	// Period is the flap cycle length (KindFlapLink).
	Period time.Duration
	// Cycles is the flap cycle count (KindFlapLink).
	Cycles int
	// MeanDown is the churn mean link downtime (KindChurn); zero defaults
	// to one second at build time.
	MeanDown time.Duration
	// Until ends the churn window (KindChurn).
	Until time.Duration
	// Restore and Flaps carry the repair-and-flap schedule (KindFailPath).
	Restore time.Duration
	Flaps   int
}

// String renders the event in the text grammar.
func (e Event) String() string {
	var sb strings.Builder
	switch e.Kind {
	case KindFailLink, KindRestoreLink, KindCostOut, KindCostIn:
		fmt.Fprintf(&sb, "%s %s @%v", e.Kind, edgeList(e.Links), e.At)
	case KindFailNode, KindRecoverNode:
		fmt.Fprintf(&sb, "%s %d @%v", e.Kind, e.Node, e.At)
	case KindFlapLink:
		fmt.Fprintf(&sb, "%s %s every %v x%d @%v", e.Kind, edgeList(e.Links), e.Period, e.Cycles, e.At)
	case KindSetLoss:
		fmt.Fprintf(&sb, "%s %s p=%g @%v", e.Kind, edgeList(e.Links), e.Rate, e.At)
	case KindChurn:
		sb.WriteString(e.Kind.String())
		if len(e.Links) > 0 {
			sb.WriteByte(' ')
			sb.WriteString(edgeList(e.Links))
		}
		fmt.Fprintf(&sb, " rate=%g/s down=%v @%v..%v", e.Rate, e.MeanDown, e.At, e.Until)
	case KindFailPath:
		fmt.Fprintf(&sb, "%s @%v", e.Kind, e.At)
		if e.Restore != 0 {
			fmt.Fprintf(&sb, " restore=%v", e.Restore)
		}
		if e.Flaps != 0 {
			fmt.Fprintf(&sb, " flaps=%d", e.Flaps)
		}
	default: // KindFailRandom, or an unknown kind
		fmt.Fprintf(&sb, "%s @%v", e.Kind, e.At)
	}
	return sb.String()
}

func edgeList(links []topology.Edge) string {
	parts := make([]string, len(links))
	for i, e := range links {
		parts[i] = fmt.Sprintf("%d-%d", e.A, e.B)
	}
	return strings.Join(parts, ",")
}

// Script is a time-ordered list of events — one trial's complete
// disturbance schedule. Parse emits events stably sorted by At (equal-time
// events keep statement order, which the executor preserves as scheduling
// order).
type Script struct {
	Events []Event
}

// String renders the script in the text grammar, statements joined by "; ".
// Parse(s.String()) reproduces the script.
func (s *Script) String() string {
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}

// Validate reports the first problem with the script, or nil: events must
// be time-ordered, fire inside [0, horizon), reference existing links and
// nodes (checked only when g is non-nil — callers with an unresolved
// topology spec defer reference checks until the graph is built), and
// respect state ordering (no restore before a fail, no cost-in before a
// cost-out). Error messages name the offending event by index and text.
func (s *Script) Validate(horizon time.Duration, g *topology.Graph) error {
	failed := make(map[topology.Edge]bool)
	failedNodes := make(map[topology.NodeID]bool)
	costed := make(map[topology.Edge]bool)
	var prev time.Duration
	for i, e := range s.Events {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("scenario: event %d (%s): %s", i, e, fmt.Sprintf(format, args...))
		}
		if e.At < 0 {
			return bad("fires before the start of the run")
		}
		if e.At >= horizon {
			return bad("fires at %v, not before the %v horizon", e.At, horizon)
		}
		if e.At < prev {
			return bad("out of time order (previous event at %v); sort the script", prev)
		}
		prev = e.At
		if err := validateRefs(g, e, bad); err != nil {
			return err
		}
		switch e.Kind {
		case KindFailLink:
			for _, l := range e.Links {
				failed[l] = true
			}
		case KindRestoreLink:
			for _, l := range e.Links {
				if !failed[l] {
					return bad("restores link %d-%d before any event fails it", l.A, l.B)
				}
				delete(failed, l)
			}
		case KindFailNode:
			failedNodes[e.Node] = true
		case KindRecoverNode:
			if !failedNodes[e.Node] {
				return bad("recovers node %d before any event fails it", e.Node)
			}
			delete(failedNodes, e.Node)
		case KindFlapLink:
			switch {
			case e.Period <= 0:
				return bad("flap period must be positive")
			case e.Cycles < 1:
				return bad("flap needs at least one cycle")
			}
		case KindSetLoss:
			if math.IsNaN(e.Rate) || e.Rate < 0 || e.Rate > 1 {
				return bad("loss probability %g outside [0, 1]", e.Rate)
			}
		case KindCostOut:
			costed[e.Links[0]] = true
		case KindCostIn:
			if !costed[e.Links[0]] {
				return bad("costs link %d-%d in before any event costs it out", e.Links[0].A, e.Links[0].B)
			}
			delete(costed, e.Links[0])
		case KindChurn:
			switch {
			case math.IsNaN(e.Rate) || e.Rate <= 0 || math.IsInf(e.Rate, 1):
				return bad("churn rate must be positive and finite")
			case e.MeanDown < 0:
				return bad("churn mean downtime must not be negative")
			case e.Until <= e.At:
				return bad("churn window @%v..%v is empty", e.At, e.Until)
			case e.Until > horizon:
				return bad("churn window ends at %v, after the %v horizon", e.Until, horizon)
			}
		case KindFailPath:
			if e.Restore < 0 {
				return bad("restore must not be negative")
			}
			if e.Flaps > 1 && e.Restore <= 0 {
				return bad("flaps=%d requires restore > 0", e.Flaps)
			}
		case KindFailRandom:
			// No parameters beyond At.
		default:
			return bad("unknown event kind")
		}
	}
	return nil
}

// Anchor returns the instant a trial's measurements count from: the first
// event that takes a link or a node down (failpath, fail link, fail node,
// failrandom, flap link or churn links), or, in a script with none, its
// first costout, or else none.
func (s *Script) Anchor(none time.Duration) time.Duration {
	for _, e := range s.Events {
		switch e.Kind {
		case KindFailPath, KindFailLink, KindFailNode, KindFailRandom, KindFlapLink, KindChurn:
			return e.At
		}
	}
	for _, e := range s.Events {
		if e.Kind == KindCostOut {
			return e.At
		}
	}
	return none
}

// NamesTopology reports whether any event names a link or a node, that is,
// whether Validate has references to check against a graph.
func (s *Script) NamesTopology() bool {
	for _, e := range s.Events {
		if len(e.Links) > 0 || e.Kind == KindFailNode || e.Kind == KindRecoverNode {
			return true
		}
	}
	return false
}

// validateRefs checks the event's link and node references against the
// graph; it is a no-op when g is nil.
func validateRefs(g *topology.Graph, e Event, bad func(string, ...any) error) error {
	if g == nil {
		return nil
	}
	for _, l := range e.Links {
		if !g.HasEdge(l.A, l.B) {
			return bad("no link %d-%d in the topology", l.A, l.B)
		}
	}
	switch e.Kind {
	case KindFailNode, KindRecoverNode:
		if int(e.Node) < 0 || int(e.Node) >= g.Len() {
			return bad("node %d outside the topology (%d nodes)", e.Node, g.Len())
		}
	}
	return nil
}
