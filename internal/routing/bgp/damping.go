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
type damper struct {
	cfg DampingConfig
	sim *sim.Simulator
	// onReuse is called when a suppressed (neighbor, destination) becomes
	// usable again so the owner can re-run best-path selection.
	onReuse func(neighbor, dst routing.NodeID)
	// state holds flap histories in dense rows outer-indexed by neighbor
	// and inner-indexed by destination, grown on demand. Rows may be
	// reallocated by growth, so nothing long-lived may hold a *flapState —
	// the reuse callback re-resolves its entry by (neighbor, dst).
	state [][]flapState
	// node, when set, notes suppression/reuse transitions to the network's
	// observer stream; nil in unit tests.
	node *netsim.Node
}

// record notes a suppression/reuse transition through the owning node; a
// no-op for node-less dampers (unit tests).
func (d *damper) record(kind obs.Kind, neighbor, dst routing.NodeID) {
	if d.node != nil {
		d.node.Note(kind, neighbor, dst)
	}
}

func newDamper(cfg DampingConfig, s *sim.Simulator, onReuse func(neighbor, dst routing.NodeID)) *damper {
	return &damper{cfg: cfg, sim: s, onReuse: onReuse}
}

// decayed returns the penalty decayed to the current time.
func (d *damper) decayed(st *flapState) float64 {
	dt := d.sim.Now() - st.updatedAt
	if dt <= 0 || st.penalty == 0 {
		return st.penalty
	}
	return st.penalty * math.Exp2(-float64(dt)/float64(d.cfg.HalfLife))
}

// at returns the entry for (neighbor, dst), growing the dense tables as
// needed. The pointer is only valid until the next call to at.
func (d *damper) at(neighbor, dst routing.NodeID) *flapState {
	if int(neighbor) >= len(d.state) {
		grown := make([][]flapState, int(neighbor)+1)
		copy(grown, d.state)
		d.state = grown
	}
	if int(dst) >= len(d.state[neighbor]) {
		grown := make([]flapState, int(dst)+1)
		copy(grown, d.state[neighbor])
		d.state[neighbor] = grown
	}
	return &d.state[neighbor][dst]
}

// peek returns the entry for (neighbor, dst) without growing, or nil.
func (d *damper) peek(neighbor, dst routing.NodeID) *flapState {
	if neighbor < 0 || int(neighbor) >= len(d.state) {
		return nil
	}
	row := d.state[neighbor]
	if dst < 0 || int(dst) >= len(row) {
		return nil
	}
	return &row[dst]
}

// Suppressed reports whether the (neighbor, destination) route is
// currently suppressed.
func (d *damper) Suppressed(neighbor, dst routing.NodeID) bool {
	st := d.peek(neighbor, dst)
	return st != nil && st.suppressed
}

// Penalty returns the current (decayed) penalty; exposed for tests.
func (d *damper) Penalty(neighbor, dst routing.NodeID) float64 {
	st := d.peek(neighbor, dst)
	if st == nil {
		return 0
	}
	return d.decayed(st)
}

// OnWithdraw charges the withdrawal penalty. It returns true if the route
// is suppressed afterwards.
func (d *damper) OnWithdraw(neighbor, dst routing.NodeID) bool {
	return d.charge(neighbor, dst, d.cfg.WithdrawPenalty)
}

// OnReannounce charges the re-announcement penalty (the caller only
// invokes it when an existing path was replaced).
func (d *damper) OnReannounce(neighbor, dst routing.NodeID) bool {
	return d.charge(neighbor, dst, d.cfg.ReannouncePenalty)
}

func (d *damper) charge(neighbor, dst routing.NodeID, penalty float64) bool {
	st := d.at(neighbor, dst)
	st.penalty = d.decayed(st) + penalty
	st.updatedAt = d.sim.Now()
	if !st.suppressed && st.penalty >= d.cfg.SuppressThreshold {
		st.suppressed = true
		d.record(obs.KindRouteFlap, neighbor, dst)
		d.scheduleReuse(neighbor, dst, st)
	} else if st.suppressed {
		// Penalty grew: push the reuse check out.
		d.scheduleReuse(neighbor, dst, st)
	}
	return st.suppressed
}

// scheduleReuse (re)schedules the un-suppression check for the exact time
// the penalty will have decayed to the reuse threshold. The callback
// re-resolves the entry by coordinates: rows are value slices that may be
// reallocated by growth, so a captured pointer could go stale.
func (d *damper) scheduleReuse(neighbor, dst routing.NodeID, st *flapState) {
	st.reuse.Cancel()
	wait := d.timeToReuse(st.penalty)
	st.reuse = d.sim.Schedule(wait, func() {
		cur := d.at(neighbor, dst)
		cur.suppressed = false
		cur.reuse = sim.Event{}
		d.record(obs.KindRouteReuse, neighbor, dst)
		d.onReuse(neighbor, dst)
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
// with it the damping context — is gone).
func (d *damper) SessionReset(neighbor routing.NodeID) {
	if int(neighbor) >= len(d.state) {
		return
	}
	row := d.state[neighbor]
	for i := range row {
		row[i].reuse.Cancel()
	}
	d.state[neighbor] = nil
}
