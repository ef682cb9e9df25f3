package routing

import "fmt"

// CheckBookkeeping reports the first broken invariant of the speaker's
// table bookkeeping: nlive counts the valid rows, and a row's changed flag
// and its changed bit agree (the bitmap walks of Stage and clearChanged
// visit exactly the changed rows).
func (v *Vector) CheckBookkeeping() error {
	live := 0
	for dst := range v.Rows {
		rt := &v.Rows[dst]
		if rt.Valid {
			live++
		}
		if bit := v.changedBits[dst>>6]&(1<<(uint(dst)&63)) != 0; bit != rt.changed {
			return fmt.Errorf("dst %d: changed bit %v, row changed %v", dst, bit, rt.changed)
		}
	}
	if live != v.nlive {
		return fmt.Errorf("nlive = %d, %d valid rows", v.nlive, live)
	}
	return nil
}
