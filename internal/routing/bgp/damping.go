package bgp

import (
	"math"
	"time"

	"routeconv/internal/netsim"
	"routeconv/internal/obs"
	"routeconv/internal/routing"
	"routeconv/internal/sim"
)

// DampingConfig parameterizes RFC 2439 route flap damping, the mechanism
// the paper's introduction discusses via Bush et al. [4] and Mao et al.
// [15]: repeated flaps accumulate a penalty per (neighbor, destination);
// once past the suppress threshold the route is ignored until the penalty
// decays below the reuse threshold.
type DampingConfig struct {
	// WithdrawPenalty is added when the neighbor withdraws the route
	// (RFC 2439 suggests 1000).
	WithdrawPenalty float64
	// ReannouncePenalty is added when the neighbor replaces an existing
	// announcement (attribute change, 500).
	ReannouncePenalty float64
	// SuppressThreshold starts suppression (2000).
	SuppressThreshold float64
	// ReuseThreshold ends suppression once the decayed penalty falls below
	// it (750).
	ReuseThreshold float64
	// HalfLife is the exponential decay half-life (RFC default 15 min;
	// experiments at the paper's 800 s scale use shorter values).
	HalfLife time.Duration
}

// DefaultDampingConfig returns the RFC 2439 suggested values.
func DefaultDampingConfig() DampingConfig {
	return DampingConfig{
		WithdrawPenalty:   1000,
		ReannouncePenalty: 500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          15 * time.Minute,
	}
}

// flapState tracks one (neighbor, destination) flap history. The zero
// value means "no history", so damper rows are plain value slices.
type flapState struct {
	penalty    float64
	updatedAt  time.Duration
	suppressed bool
	reuse      sim.Event
}

// damper implements the flap-damping state machine for one BGP speaker.
// Neighbors are named by rank (Node.Rank), destinations by ID.
type damper struct {
	cfg DampingConfig
	sim *sim.Simulator
	// onReuse is called when a suppressed (neighbor, destination) becomes
	// usable again so the owner can re-run best-path selection.
	onReuse func(rank int, dst routing.NodeID)
	// state holds flap histories, one row per neighbor rank. A row is
	// indexed by destination, dsts long, and allocated the first time the
	// neighbor is charged; it is never reallocated, so entry pointers stay
	// valid.
	state [][]flapState
	dsts  int
	// node, when set, notes suppression/reuse transitions to the network's
	// observer stream; nil in unit tests.
	node *netsim.Node
}

// record notes a suppression/reuse transition through the owning node; a
// no-op for node-less dampers (unit tests).
func (d *damper) record(kind obs.Kind, rank int, dst routing.NodeID) {
	if d.node != nil {
		d.node.Note(kind, d.node.Neighbors()[rank], dst)
	}
}

// newDamper returns a damper for a speaker with the given number of
// neighbors in a network of dsts destinations.
func newDamper(cfg DampingConfig, s *sim.Simulator, neighbors, dsts int, onReuse func(rank int, dst routing.NodeID)) *damper {
	return &damper{cfg: cfg, sim: s, onReuse: onReuse, state: make([][]flapState, neighbors), dsts: dsts}
}

// decayed returns the penalty decayed to the current time.
func (d *damper) decayed(st *flapState) float64 {
	dt := d.sim.Now() - st.updatedAt
	if dt <= 0 || st.penalty == 0 {
		return st.penalty
	}
	return st.penalty * math.Exp2(-float64(dt)/float64(d.cfg.HalfLife))
}

// at returns the entry for (rank, dst), allocating the neighbor's row on
// first use.
func (d *damper) at(rank int, dst routing.NodeID) *flapState {
	if d.state[rank] == nil {
		d.state[rank] = make([]flapState, d.dsts)
	}
	return &d.state[rank][dst]
}

// peek returns the entry for (rank, dst), or nil when the neighbor was
// never charged.
func (d *damper) peek(rank int, dst routing.NodeID) *flapState {
	if row := d.state[rank]; row != nil {
		return &row[dst]
	}
	return nil
}

// Suppressed reports whether the (neighbor, destination) route is
// currently suppressed.
func (d *damper) Suppressed(rank int, dst routing.NodeID) bool {
	st := d.peek(rank, dst)
	return st != nil && st.suppressed
}

// OnWithdraw charges the withdrawal penalty. It returns true if the route
// is suppressed afterwards.
func (d *damper) OnWithdraw(rank int, dst routing.NodeID) bool {
	return d.charge(rank, dst, d.cfg.WithdrawPenalty)
}

// OnReannounce charges the re-announcement penalty (the caller only
// invokes it when an existing path was replaced).
func (d *damper) OnReannounce(rank int, dst routing.NodeID) bool {
	return d.charge(rank, dst, d.cfg.ReannouncePenalty)
}

func (d *damper) charge(rank int, dst routing.NodeID, penalty float64) bool {
	st := d.at(rank, dst)
	st.penalty = d.decayed(st) + penalty
	st.updatedAt = d.sim.Now()
	if !st.suppressed && st.penalty >= d.cfg.SuppressThreshold {
		st.suppressed = true
		d.record(obs.KindRouteFlap, rank, dst)
		d.scheduleReuse(rank, dst, st)
	} else if st.suppressed {
		// Penalty grew: push the reuse check out.
		d.scheduleReuse(rank, dst, st)
	}
	return st.suppressed
}

// scheduleReuse (re)schedules the un-suppression check for the exact time
// the penalty will have decayed to the reuse threshold.
func (d *damper) scheduleReuse(rank int, dst routing.NodeID, st *flapState) {
	st.reuse.Cancel()
	wait := d.timeToReuse(st.penalty)
	st.reuse = d.sim.Schedule(wait, func() {
		st.suppressed = false
		st.reuse = sim.Event{}
		d.record(obs.KindRouteReuse, rank, dst)
		d.onReuse(rank, dst)
	})
}

// timeToReuse returns how long a fresh penalty takes to decay to the reuse
// threshold: halfLife * log2(penalty / reuse).
func (d *damper) timeToReuse(penalty float64) time.Duration {
	if penalty <= d.cfg.ReuseThreshold {
		return 0
	}
	ratio := penalty / d.cfg.ReuseThreshold
	return time.Duration(float64(d.cfg.HalfLife) * math.Log2(ratio))
}

// SessionReset drops all flap history for the neighbor (the session — and
// with it the damping context — is gone), cancelling its reuse checks.
func (d *damper) SessionReset(rank int) {
	row := d.state[rank]
	for i := range row {
		row[i].reuse.Cancel()
	}
	clear(row)
}
