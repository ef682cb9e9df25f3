package bgp

import (
	"math/rand"

	"routeconv/internal/routing"
)

// BestPath returns the selected path to dst (starting with this node), or
// nil when the destination is unreachable or outside the network.
func (p *Protocol) BestPath(dst routing.NodeID) []routing.NodeID {
	if uint(dst) >= uint(len(p.best)) {
		return nil
	}
	return p.paths.appendPath(nil, p.best[dst])
}

// WithDecoyCells makes every path table created until restore is called
// start with at least n decoy cells: random paths of one to three elements
// over nodes 0–63, drawn from a fixed seed. Every real path then gets
// another ID, and the short real paths that decoys pre-make get theirs in
// random order. It must not be called while a trial runs.
func WithDecoyCells(n int) (restore func()) {
	orig := newPathTable
	newPathTable = func() *pathTable {
		t := orig()
		rng := rand.New(rand.NewSource(1))
		for len(t.cells) <= n {
			path := []routing.NodeID{routing.NodeID(rng.Intn(64)), routing.NodeID(rng.Intn(64)), routing.NodeID(rng.Intn(64))}
			t.intern(path[:1+rng.Intn(3)])
		}
		return t
	}
	return func() { newPathTable = orig }
}
