package bgp

import "routeconv/internal/routing"

// BestPath returns the selected path to dst (starting with this node), or
// nil when the destination is unreachable or outside the network. The
// slice aliases the intern table and must not be modified.
func (p *Protocol) BestPath(dst routing.NodeID) []routing.NodeID {
	if uint(dst) >= uint(len(p.best)) {
		return nil
	}
	return p.intern.path(p.best[dst])
}
