package ls

import (
	"routeconv/internal/obs"
	"routeconv/internal/routing"
)

// Incremental SPF: when an LSA change reduces to at most one effective
// edge (after the two-way check), the persistent shortest-path tree in
// spfScratch (pdist + firstHops) is patched in place instead of rerun
// from scratch — affected-subtree detection for a removed edge, a bounded
// decrease cascade for an inserted one, and first-hop "cone" propagation
// to descendants of any node whose hop set changed.
//
// Equivalence contract: the patch leaves pdist/firstHops exactly as a
// full recompute would, and emits the identical observable effects —
// SetRoute calls in ascending (distance, ID) order followed by ClearRoute
// calls in ascending ID order, both relying on the FIB's idempotence so
// untouched destinations stay silent. Any situation the patch cannot
// handle exactly (first run, ECMP, multi-edge deltas, affected regions
// past maxAffected) falls back to the full SPF, which
// rewrites the persistent tree wholesale; a partially patched tree is
// therefore never observed. TestIncrementalMatchesFullSPF checks the
// equivalence against an independent oracle on randomized histories.

const (
	// maxDeltaScan bounds the quadratic old-vs-new neighbor-list diff; a
	// hub re-originating a huge LSA goes straight to the full SPF.
	maxDeltaScan = 128
	// maxAffected bounds the patched region (orphan set plus hop cone);
	// past it a full recompute is assumed cheaper and certainly simpler.
	maxAffected = 256
)

// incrScratch is the persistent workspace of the incremental patch. Mark
// arrays are epoch-versioned like spfScratch's, so a patch clears nothing.
type incrScratch struct {
	epoch  uint32
	orph   []uint32 // orph[v]==epoch: v is orphaned (distance increasing)
	fixed  []uint32 // fixed[v]==epoch: orphan v re-relaxed to its final distance
	inAff  []uint32 // inAff[v]==epoch: v is on the affected worklist
	cand   []int32  // candidate distance for orphans (valid while orphaned)
	queue  []routing.NodeID
	aff    []routing.NodeID // affected worklist, sorted by (pdist, ID) in the hop phase
	oldRow []routing.NodeID // copy of a first-hop row for change detection
	addBuf []routing.NodeID
	delBuf []routing.NodeID
}

// next starts a patch: bump the epoch, clearing marks on wraparound. The
// first patch sizes the dense arrays to the network's n nodes.
func (ic *incrScratch) next(n int) {
	if ic.orph == nil {
		ic.orph, ic.fixed, ic.inAff = make([]uint32, n), make([]uint32, n), make([]uint32, n)
		ic.cand = make([]int32, n)
	}
	ic.epoch++
	if ic.epoch == 0 {
		for i := range ic.orph {
			ic.orph[i] = 0
			ic.fixed[i] = 0
			ic.inAff[i] = 0
		}
		ic.epoch = 1
	}
	ic.queue = ic.queue[:0]
	ic.aff = ic.aff[:0]
}

// tryIncremental patches the SPT for the LSA change at origin (old is the
// previous LSA; hadOld reports whether one existed) and reports whether it
// fully handled the recompute. false means the caller must run the full
// SPF — either because the fast path does not apply or because a partial
// patch hit a bound; the full run rewrites all persistent state either way.
func (p *Protocol) tryIncremental(origin routing.NodeID, old LSA, hadOld bool) bool {
	if !p.haveSPT || p.cfg.ECMP {
		return false
	}
	var oldN []routing.NodeID
	if hadOld {
		oldN = old.Neighbors
	}
	newN := p.db[origin].Neighbors
	if len(oldN)+len(newN) > maxDeltaScan {
		return false
	}

	// Effective-edge delta: a listed neighbor only forms an edge when it
	// has an LSA and lists origin back (the two-way check) —
	// the same conditions the full CSR build applies. The other side's LSA
	// is unchanged by this event, so one check covers before and after.
	ic := &p.incr
	add, del := ic.addBuf[:0], ic.delBuf[:0]
	for _, v := range newN {
		if !containsID(oldN, v) && p.have[v] && containsID(p.db[v].Neighbors, origin) {
			add = append(add, v)
			if len(add) > 1 {
				ic.addBuf = add[:0]
				return false // multi-edge delta: bail before scanning more
			}
		}
	}
	for _, v := range oldN {
		if !containsID(newN, v) && p.have[v] && containsID(p.db[v].Neighbors, origin) {
			del = append(del, v)
			if len(add)+len(del) > 1 {
				ic.addBuf, ic.delBuf = add[:0], del[:0]
				return false
			}
		}
	}
	ic.addBuf, ic.delBuf = add, del

	met := p.node.Metrics()
	switch {
	case len(add)+len(del) == 0:
		// Pure refresh (same adjacency, new sequence number) or a change
		// invisible through the two-way check: the graph is unchanged, so
		// the full SPF would re-derive the identical tree and every
		// SetRoute/ClearRoute it issued would be silently idempotent.
		met.Inc(obs.ProtoDecisionRuns)
		met.Inc(obs.ProtoSPFIncremental)
		return true
	case len(add) == 1 && len(del) == 0:
		if !p.patchInsert(origin, add[0]) {
			return false
		}
	case len(del) == 1 && len(add) == 0:
		if !p.patchRemove(origin, del[0]) {
			return false
		}
	default:
		return false // multi-edge delta: full SPF
	}
	met.Inc(obs.ProtoDecisionRuns)
	met.Inc(obs.ProtoSPFIncremental)
	p.emitAffected()
	return true
}

// effParent reports whether u currently parents v in the SPT: effective
// edge plus distance exactly one less.
func (p *Protocol) effParent(v, u routing.NodeID) bool {
	return p.have[u] && p.spf.pdist[u] != distInf &&
		p.spf.pdist[u] == p.spf.pdist[v]-1 && containsID(p.db[u].Neighbors, v)
}

// hasNonOrphanParent reports whether v keeps at least one parent outside
// the current orphan set.
func (p *Protocol) hasNonOrphanParent(v routing.NodeID) bool {
	for _, u := range p.db[v].Neighbors {
		if p.effParent(v, u) && p.incr.orph[u] != p.incr.epoch {
			return true
		}
	}
	return false
}

// addAffected puts v on the worklist once.
func (p *Protocol) addAffected(v routing.NodeID) {
	ic := &p.incr
	if ic.inAff[v] != ic.epoch {
		ic.inAff[v] = ic.epoch
		ic.aff = append(ic.aff, v)
	}
}

// patchRemove handles the removal of the single effective edge (a, b).
// It updates pdist and the first-hop rows of every affected node and
// leaves the worklist ready for emitAffected; false means a bound was hit
// and the caller must fall back (partially patched state is overwritten
// wholesale by the full SPF).
func (p *Protocol) patchRemove(a, b routing.NodeID) bool {
	s, ic := &p.spf, &p.incr
	n := len(p.db)
	da, db := s.pdist[a], s.pdist[b]
	if da == db {
		// Same level (or both unreachable): the edge was on no shortest
		// path and contributed no first hops.
		ic.next(n)
		return true
	}
	if da > db {
		a, b = b, a
		da, db = db, da
	}
	if da == distInf || db != da+1 {
		return false // inconsistent with an old effective edge; play safe
	}
	ic.next(n)

	if p.hasParentAt(b, db-1) {
		// b keeps its distance; only its first-hop set can shrink.
		p.addAffected(b)
		return p.hopPhase()
	}

	// Affected-subtree detection: breadth-first over the orphaned region.
	// Processing is level by level, so when a node at distance d is
	// examined every orphan at distance d is already marked and the
	// "keeps a non-orphan parent" verdict for its children is final.
	ic.orph[b] = ic.epoch
	ic.queue = append(ic.queue, b)
	p.addAffected(b)
	for i := 0; i < len(ic.queue); i++ {
		x := ic.queue[i]
		dx := s.pdist[x]
		for _, u := range p.db[x].Neighbors {
			if !p.have[u] || s.pdist[u] != dx+1 || !containsID(p.db[u].Neighbors, x) {
				continue
			}
			if ic.orph[u] == ic.epoch {
				continue
			}
			if p.hasNonOrphanParent(u) {
				// u survives at its distance but loses parent x.
				p.addAffected(u)
				continue
			}
			ic.orph[u] = ic.epoch
			ic.queue = append(ic.queue, u)
			p.addAffected(u)
		}
		if len(ic.aff) > maxAffected {
			return false
		}
	}

	// Bounded re-relaxation from the cut frontier: Dijkstra over the
	// orphan set by linear scan (the set is small by the bound above).
	// Candidate seeds come from non-orphan neighbors, whose distances are
	// final.
	orphans := ic.queue
	for _, x := range orphans {
		best := distInf
		for _, u := range p.db[x].Neighbors {
			if !p.have[u] || ic.orph[u] == ic.epoch || s.pdist[u] == distInf {
				continue
			}
			if d := s.pdist[u] + 1; d < best && containsID(p.db[u].Neighbors, x) {
				best = d
			}
		}
		ic.cand[x] = best
	}
	for remaining := len(orphans); remaining > 0; {
		pick := routing.NodeID(-1)
		bestC := distInf
		for _, x := range orphans {
			if ic.fixed[x] != ic.epoch && ic.cand[x] < bestC {
				pick, bestC = x, ic.cand[x]
			}
		}
		if pick < 0 {
			// Everything left is cut off entirely.
			for _, x := range orphans {
				if ic.fixed[x] != ic.epoch {
					ic.fixed[x] = ic.epoch
					s.pdist[x] = distInf
				}
			}
			break
		}
		ic.fixed[pick] = ic.epoch
		s.pdist[pick] = bestC
		remaining--
		for _, u := range p.db[pick].Neighbors {
			if !p.have[u] || ic.orph[u] != ic.epoch || ic.fixed[u] == ic.epoch {
				continue
			}
			if bestC+1 < ic.cand[u] && containsID(p.db[u].Neighbors, pick) {
				ic.cand[u] = bestC + 1
			}
		}
	}

	// A re-fixed orphan lands at a strictly greater distance, so it can
	// become a brand-new parent of nodes one level past it whose own
	// distance never moved. Their hop sets gain the orphan's hops even
	// when the orphan's own row is unchanged, which the cone cannot see —
	// dirty them explicitly.
	for _, x := range orphans {
		dx := s.pdist[x]
		if dx == distInf {
			continue
		}
		for _, u := range p.db[x].Neighbors {
			if p.have[u] && s.pdist[u] == dx+1 && containsID(p.db[u].Neighbors, x) {
				p.addAffected(u)
			}
		}
		if len(ic.aff) > maxAffected {
			return false
		}
	}
	return p.hopPhase()
}

// hasParentAt reports whether v has an effective neighbor at exactly
// distance d.
func (p *Protocol) hasParentAt(v routing.NodeID, d int32) bool {
	for _, u := range p.db[v].Neighbors {
		if p.have[u] && p.spf.pdist[u] == d && containsID(p.db[u].Neighbors, v) {
			return true
		}
	}
	return false
}

// patchInsert handles the insertion of the single effective edge (a, b).
func (p *Protocol) patchInsert(a, b routing.NodeID) bool {
	s, ic := &p.spf, &p.incr
	n := len(p.db)
	da, db := s.pdist[a], s.pdist[b]
	if da == db {
		// Same level or both unreachable: no shortest path uses the edge.
		ic.next(n)
		return true
	}
	if da > db {
		a, b = b, a
		da, db = db, da
	}
	ic.next(n)
	if db == da+1 {
		// b gains a parent; only first-hop sets can change.
		p.addAffected(b)
		return p.hopPhase()
	}

	// Decrease cascade: b drops to da+1 and the improvement spreads
	// breadth-first. A neighbor exactly one past a relaxed node gains it
	// as a parent, so its hop set is dirtied without a distance change.
	s.pdist[b] = da + 1
	p.addAffected(b)
	ic.queue = append(ic.queue, b)
	for i := 0; i < len(ic.queue); i++ {
		x := ic.queue[i]
		dx := s.pdist[x]
		for _, u := range p.db[x].Neighbors {
			if !p.have[u] || !containsID(p.db[u].Neighbors, x) {
				continue
			}
			if s.pdist[u] > dx+1 {
				s.pdist[u] = dx + 1
				p.addAffected(u)
				ic.queue = append(ic.queue, u)
				if len(ic.queue) > maxAffected {
					return false
				}
			} else if s.pdist[u] == dx+1 {
				p.addAffected(u)
			}
		}
		if len(ic.aff) > maxAffected {
			return false
		}
	}
	return p.hopPhase()
}

// hopPhase rebuilds first-hop rows for the worklist in ascending
// (distance, ID) order — so parents are final before children consult
// them, the order the full SPF resolves in — and spreads to the children
// of any node whose set actually changed (the cone). Distances are final
// when it runs.
func (p *Protocol) hopPhase() bool {
	s, ic := &p.spf, &p.incr

	// Insertion sort by (pdist, ID); unreachable (distInf) entries sort
	// last, in ascending ID order — exactly the emission order needed.
	aff := ic.aff
	for i := 1; i < len(aff); i++ {
		v := aff[i]
		j := i - 1
		for j >= 0 && affLess(s, v, aff[j]) {
			aff[j+1] = aff[j]
			j--
		}
		aff[j+1] = v
	}

	self := p.node.ID()
	for i := 0; i < len(aff); i++ {
		v := aff[i]
		if v == self {
			continue
		}
		if !p.rebuildHops(v, self) {
			continue
		}
		// The set changed: children must re-derive theirs. Insertions keep
		// the list sorted; a child's key (pdist[v]+1, u) is strictly after
		// position i, so the iteration visits it.
		dv := s.pdist[v]
		if dv == distInf {
			continue
		}
		for _, u := range p.db[v].Neighbors {
			if !p.have[u] || s.pdist[u] != dv+1 || !containsID(p.db[u].Neighbors, v) {
				continue
			}
			if ic.inAff[u] == ic.epoch {
				continue
			}
			ic.inAff[u] = ic.epoch
			at := len(aff)
			aff = append(aff, u)
			for at > 0 && affLess(s, u, aff[at-1]) {
				aff[at] = aff[at-1]
				at--
			}
			aff[at] = u
			if len(aff) > maxAffected {
				ic.aff = aff
				return false
			}
		}
	}
	ic.aff = aff
	return true
}

// affLess orders the worklist by (distance, ID).
func affLess(s *spfScratch, a, b routing.NodeID) bool {
	da, db := s.pdist[a], s.pdist[b]
	return da < db || (da == db && a < b)
}

// rebuildHops recomputes the first-hop set for v from its current parents
// — identical union/dedup/sort logic to the full SPF's resolution step —
// and reports whether the set changed.
func (p *Protocol) rebuildHops(v routing.NodeID, self routing.NodeID) bool {
	s, ic := &p.spf, &p.incr
	old := s.firstHops[v]
	ic.oldRow = append(ic.oldRow[:0], old...)
	hops := old[:0]
	if dv := s.pdist[v]; dv != distInf {
		mark := s.nextHopEpoch()
		for _, u := range p.db[v].Neighbors {
			if !p.have[u] || s.pdist[u] != dv-1 || !containsID(p.db[u].Neighbors, v) {
				continue
			}
			if u == self {
				if s.hopSeen[v] != mark {
					s.hopSeen[v] = mark
					hops = append(hops, v)
				}
				continue
			}
			for _, h := range s.firstHops[u] {
				if s.hopSeen[h] != mark {
					s.hopSeen[h] = mark
					hops = append(hops, h)
				}
			}
		}
		for i := 1; i < len(hops); i++ {
			h := hops[i]
			j := i - 1
			for j >= 0 && hops[j] > h {
				hops[j+1] = hops[j]
				j--
			}
			hops[j+1] = h
		}
	}
	s.firstHops[v] = hops
	if len(hops) != len(ic.oldRow) {
		return true
	}
	for i := range hops {
		if hops[i] != ic.oldRow[i] {
			return true
		}
	}
	return false
}

// emitAffected installs the patched results: SetRoute for reachable
// destinations in ascending (distance, ID) order, then ClearRoute (and the
// multipath clear the full SPF issues) in ascending ID order for
// unreachable ones — the same order and the same calls the full SPF makes,
// restricted to the affected set; the FIB's idempotence keeps genuinely
// unchanged destinations silent, exactly as they are under the full run.
func (p *Protocol) emitAffected() {
	s, ic := &p.spf, &p.incr
	self := p.node.ID()
	for _, v := range ic.aff {
		if v != self && s.pdist[v] != distInf {
			p.node.SetRoute(v, s.firstHops[v][0])
		}
	}
	for _, v := range ic.aff {
		if v != self && s.pdist[v] == distInf && p.have[v] {
			p.node.ClearRoute(v)
			p.node.SetMultipath(v, nil)
		}
	}
}
