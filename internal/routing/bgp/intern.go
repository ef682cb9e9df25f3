package bgp

import (
	"routeconv/internal/netsim"
	"routeconv/internal/routing"
)

// pathID names one AS path in a path table. The RIBs (Adj-RIB-In, Loc-RIB,
// RIB-Out) store 32-bit IDs: the table hash-conses every path, so equal
// paths share an ID and path equality is integer equality.
type pathID int32

// noPath, the zero ID, is the empty path: an empty RIB slot, "no path
// selected", and the tail of a one-element path.
const noPath pathID = 0

// cell is one path as a cons cell: its head (first element), the ID of
// its tail (the rest), and its length.
type cell struct {
	cellKey
	len int32
}

// cellKey identifies a path by its head and the ID of its tail.
type cellKey struct {
	head routing.NodeID
	tail pathID
}

// pathTable hash-conses AS paths as cons cells. A path a speaker selects is
// its own ID in front of a path a neighbor announced, so it costs one cell,
// and prepending is one probe of a map keyed by the fixed-size (head, tail)
// pair. Cells are append-only and keep their IDs, so RIB slots and updates
// in flight share them.
//
// One table serves every speaker of an execution context (tableOf), so in
// a sequential trial a path exists once network-wide and an update carries
// its ID. Only the context's goroutine touches the table (the ownership
// rule of netsim.Node.MessagePool), so an update crossing a shard cut
// carries the path's elements, and its receiver interns them.
//
// The table also keeps the free list of the updates the context's
// speakers send: the network releases each one once its flight ends, so
// steady-state update traffic allocates neither messages nor withdrawal
// batches.
type pathTable struct {
	cells []cell // cells[id]; cells[0] is the empty path
	ids   map[cellKey]pathID
	free  []*Update
}

// newPathTable returns a table holding only the empty path. It is a
// variable so that tests can make tables that start with decoy cells.
var newPathTable = func() *pathTable {
	return &pathTable{cells: make([]cell, 1, 256), ids: make(map[cellKey]pathID, 256)}
}

// tableOf returns the path table of the node's home execution context,
// creating it on first use.
func tableOf(node *netsim.Node) *pathTable {
	slot := node.MessagePool()
	if t, ok := (*slot).(*pathTable); ok {
		return t
	}
	t := newPathTable()
	*slot = t
	return t
}

// prepend returns the ID of the path formed by head followed by tail,
// making its cell on first sight.
func (t *pathTable) prepend(head routing.NodeID, tail pathID) pathID {
	k := cellKey{head, tail}
	if id, ok := t.ids[k]; ok {
		return id
	}
	id := pathID(len(t.cells))
	t.cells = append(t.cells, cell{k, t.cells[tail].len + 1})
	t.ids[k] = id
	return id
}

// intern returns the ID of the path with the given elements.
func (t *pathTable) intern(path []routing.NodeID) pathID {
	id := noPath
	for i := len(path) - 1; i >= 0; i-- {
		id = t.prepend(path[i], id)
	}
	return id
}

// contains reports whether node is an element of the path.
func (t *pathTable) contains(id pathID, node routing.NodeID) bool {
	for ; id != noPath; id = t.cells[id].tail {
		if t.cells[id].head == node {
			return true
		}
	}
	return false
}

// appendPath appends the path's elements to buf.
func (t *pathTable) appendPath(buf []routing.NodeID, id pathID) []routing.NodeID {
	for ; id != noPath; id = t.cells[id].tail {
		buf = append(buf, t.cells[id].head)
	}
	return buf
}
