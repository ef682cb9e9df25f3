package routing

import "fmt"

// CheckBookkeeping reports the first broken invariant of the speaker's
// table bookkeeping: nlive counts the valid rows, only valid rows carry a
// changed bit (Stage walks the bitmap without looking at the rows), and
// every valid row's next hop translates to a neighbor — or to the node
// itself, on its own row and nowhere else.
func (v *Vector) CheckBookkeeping() error {
	live := 0
	self := v.Node.ID()
	degree := len(v.Node.Neighbors())
	for dst := range v.Rows {
		rt := &v.Rows[dst]
		bit := v.changedBits[dst>>6]&(1<<(uint(dst)&63)) != 0
		if !rt.Valid() {
			if bit {
				return fmt.Errorf("dst %d: empty row carries a changed bit", dst)
			}
			continue
		}
		live++
		own := NodeID(dst) == self
		if own != (rt.Hop == HopSelf) || !own && int(rt.Hop) > degree {
			return fmt.Errorf("dst %d: next hop %d names neither a neighbor (degree %d) nor the self row", dst, rt.Hop, degree)
		}
	}
	if live != v.nlive {
		return fmt.Errorf("nlive = %d, %d valid rows", v.nlive, live)
	}
	return nil
}
