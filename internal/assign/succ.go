package assign

import (
	"slices"
	"strings"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// Lattice moves. Successor and predecessor generation dominate the engine's
// per-answer CPU cost, so this file is written for raw speed: candidates are
// assembled in reusable scratch buffers (hdrBuf/valBuf/keyBuf) and looked up
// in the node table with a single no-allocation map probe on their
// serialized key; only a node seen for the first time is copied into the
// Space's bump arenas (see arena.go) and interned. Unchanged value rows are
// shared structurally with the parent assignment — rows are immutable once
// published, so a node differs from the parent that first derived it by
// exactly one arena-allocated row. The emit order and canonical forms are
// byte-identical to the original clone-based generator, which the
// equivalence and golden tests pin down.

// DomainSize reports the exploration-domain size of variable i (used by the
// experiment harness when reporting lattice dimensions).
func (sp *Space) DomainSize(i int) int { return len(sp.tab.domains[i]) }

// Minimal returns the minimal (most general) elements of 𝒜: for each
// mandatory variable, value sets of the multiplicity's lower-bound size
// drawn from the variable's most general domain values (minimal domain
// values are pairwise incomparable, so any combination is an antichain);
// the empty set for optional variables (multiplicity * or ?); and no MORE
// facts. For the Figure 2 query this is the single node
// (w,x ↦ Attraction, y ↦ Activity, z ↦ Restaurant) at the top of Figure 3.
//
// The seeds are plan-invariant: the first Space of a Tables computes them
// once and every sibling Space gets the same slice, which is shared and
// read-only. Computing them interns nothing; a caller interns the seeds it
// keeps with ID.
func (sp *Space) Minimal() []Assignment {
	sp.tab.seedsOnce.Do(func() { sp.tab.seeds = sp.minimal() })
	return sp.tab.seeds
}

// minimal computes Minimal's seeds, testing 𝒜-membership without the node
// table.
func (sp *Space) minimal() []Assignment {
	choices := make([][][]vocab.Term, len(sp.Vars))
	for i, vs := range sp.Vars {
		if vs.Mult.Min == 0 {
			choices[i] = [][]vocab.Term{nil}
			continue
		}
		if vs.Mult.Min == 1 {
			for _, t := range sp.tab.minVals[i] {
				choices[i] = append(choices[i], []vocab.Term{t})
			}
		} else {
			choices[i] = sp.minimalAntichains(i, vs.Mult.Min)
		}
		if len(choices[i]) == 0 {
			// Empty domain, or a {k,...} lower bound that no size-k
			// antichain of domain values satisfies: no minimal elements.
			return nil
		}
	}
	var out []Assignment
	cur := make([][]vocab.Term, len(sp.Vars))
	var rec func(i int)
	rec = func(i int) {
		if i == len(sp.Vars) {
			a := sp.NewAssignment(cur, nil)
			if sp.structuralInA(a) && sp.coveredByValidBox(a) {
				out = append(out, a)
			}
			return
		}
		for _, c := range choices[i] {
			cur[i] = c
			rec(i + 1)
		}
	}
	if len(sp.Vars) > 0 {
		rec(0)
	} else if len(sp.ValidBase) > 0 || len(sp.Sat) > 0 {
		// No variables at all: the single constant assignment.
		out = append(out, sp.NewAssignment(nil, nil))
	}
	return out
}

// minimalAntichains enumerates the minimal size-k antichains of variable
// i's domain: antichains with no valid generalize move, i.e. every
// in-domain parent of every value is comparable with some other value of
// the set (generalizing would either leave the lattice floor via antichain
// absorption or yield a strict predecessor). Enumeration is O(|domain|^k)
// and capped; the {k,…} multiplicity extension is intended for small k.
func (sp *Space) minimalAntichains(i, k int) [][]vocab.Term {
	vals := sp.tab.domains[i]

	const cap = 1 << 16
	var out [][]vocab.Term
	set := make([]vocab.Term, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(out) >= cap {
			return
		}
		if len(set) == k {
			if sp.isMinimalAntichain(i, set) {
				out = append(out, append([]vocab.Term(nil), set...))
			}
			return
		}
		for j := start; j <= len(vals)-(k-len(set)); j++ {
			t := vals[j]
			ok := true
			for _, u := range set {
				if sp.Voc.Comparable(u, t) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			set = append(set, t)
			rec(j + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

// isMinimalAntichain reports whether no value of the antichain can be
// generalized one in-domain Hasse step while keeping the set an antichain.
func (sp *Space) isMinimalAntichain(i int, set []vocab.Term) bool {
	for vi, v := range set {
		for _, p := range sp.Voc.Parents(v) {
			if !sp.tab.inDomain(i, p) {
				continue
			}
			comparable := false
			for ui, u := range set {
				if ui != vi && sp.Voc.Comparable(u, p) {
					comparable = true
					break
				}
			}
			if !comparable {
				return false // a valid generalize move exists
			}
		}
	}
	return true
}

// Successors generates the immediate successors of a within 𝒜: specialize
// one value one Hasse step, add one minimal compatible value to a variable
// whose multiplicity allows it (the lazy combination of Proposition 5.1), or
// extend/specialize the MORE fact-set from the candidate pool. Results are
// deduplicated and sorted by key. A node that did not come from this Space
// is interned first.
func (sp *Space) Successors(a Assignment) []Assignment {
	sp.idBuf = sp.AppendSuccessorIDs(sp.idBuf[:0], sp.ID(a))
	return sp.nodesOf(sp.idBuf)
}

// AppendSuccessorIDs appends the ids of the immediate successors of node id
// (see Successors) to dst and returns the extended slice. The appended
// region is deduplicated and sorted by key.
func (sp *Space) AppendSuccessorIDs(dst []uint32, id uint32) []uint32 {
	a := sp.nodes[id]
	start := len(dst)
	for i := range sp.Vars {
		vals := a.Vals[i]
		// Specialize one value one step.
		for vi, v := range vals {
			for _, c := range sp.Voc.Children(v) {
				if !sp.tab.inDomain(i, c) {
					continue
				}
				if !compatible(sp.Voc, vals, vi, c) {
					continue
				}
				row := replaceAtBuf(sp.valBuf[:0], vals, vi, c)
				sp.valBuf = row
				dst = sp.emitRow(dst, a, i, row)
			}
		}
		// Add one minimal compatible value.
		max := sp.Vars[i].Mult.Max
		if max >= 0 && len(vals) >= max {
			continue
		}
		for _, t := range sp.minimalAddable(i, vals) {
			row := insertSortedBuf(append(sp.valBuf[:0], vals...), t)
			sp.valBuf = row
			dst = sp.emitRow(dst, a, i, row)
		}
	}

	if sp.More && len(sp.MoreCandidates) > 0 {
		dst = sp.moreSuccessors(dst, a)
	}
	return sp.finishMoves(dst, start)
}

// nodesOf returns the nodes with the given ids, nil when there are none.
func (sp *Space) nodesOf(ids []uint32) []Assignment {
	if len(ids) == 0 {
		return nil
	}
	out := make([]Assignment, len(ids))
	for k, id := range ids {
		out[k] = sp.nodes[id]
	}
	return out
}

// emitRow runs the emit pipeline for the candidate obtained from a by
// replacing variable i's value row with row (a canonical sorted antichain in
// scratch storage).
func (sp *Space) emitRow(dst []uint32, a Assignment, i int, row []vocab.Term) []uint32 {
	hdr := append(sp.hdrBuf[:0], a.Vals...)
	sp.hdrBuf = hdr
	hdr[i] = row
	return sp.emitCand(dst, a, Assignment{Vals: hdr, More: a.More}, i)
}

// emitCand is the shared emit pipeline: serialize the candidate's key into
// scratch, test 𝒜-membership (structural part first, then the node's
// memoized box-cover test, found with a single no-allocation probe of the
// node table) and order against a, and on acceptance append the node's id
// (changed names the single value row that differs from a, or -1 for a
// pure MORE move). Together with the post-sort compaction in finishMoves it
// emits exactly the set the original seal → dedup → InA → Lt clone-based
// pipeline emitted: duplicate derivations of one node carry one id and are
// collapsed after sorting, and the strictness half of Lt reduces to the key
// comparison against a.
func (sp *Space) emitCand(dst []uint32, a, cand Assignment, changed int) []uint32 {
	kb := cand.appendKey(sp.keyBuf[:0])
	sp.keyBuf = kb
	if string(kb) == a.Key() || !sp.structuralInA(cand) {
		return dst
	}
	// No explicit Leq order check against a: every Hasse move covers the
	// parent by construction — unchanged values cover themselves, a
	// specialized value covers the value it replaced (c ∈ Children(v) ⟹
	// v ≤ c, and dually p ∈ Parents(v) ⟹ p ≤ v for predecessors), added
	// values and MORE extensions only grow the covered set, and fact.Reduce
	// keeps most-specific representatives. Lt's strictness half is the key
	// comparison above. The old pipeline evaluated Lt anyway; on these
	// candidates it could only fail on equality, so the emitted set is
	// unchanged.
	id, seen := sp.ids[string(kb)]
	if !seen {
		// First sight: materialize the key and the changed row, once per
		// distinct node per session — re-derivations from other parents
		// share them. A pure MORE move shares a's value rows wholesale.
		cand.key = string(kb)
		if changed >= 0 {
			hdr := sp.hdrs.alloc(len(a.Vals))
			copy(hdr, a.Vals)
			hdr[changed] = sp.arena.clone(cand.Vals[changed])
			cand.Vals = hdr
		}
		id = sp.intern(cand)
	}
	if !sp.covered(id) {
		return dst
	}
	return append(dst, id)
}

// finishMoves puts the emitted region dst[start:] into canonical form:
// sorted by key with duplicate derivations of the same node — adjacent after
// sorting, and one id — collapsed.
func (sp *Space) finishMoves(dst []uint32, start int) []uint32 {
	out := dst[start:]
	slices.SortFunc(out, func(x, y uint32) int { return strings.Compare(sp.nodes[x].key, sp.nodes[y].key) })
	return dst[:start+len(slices.Compact(out))]
}

// compatible reports whether c is incomparable with every value of vals
// other than index skip (keeping the set an antichain without absorption).
func compatible(v *vocab.Vocabulary, vals []vocab.Term, skip int, c vocab.Term) bool {
	for i, u := range vals {
		if i == skip {
			continue
		}
		if v.Comparable(u, c) {
			return false
		}
	}
	return true
}

// replaceAtBuf appends vals-without-index-i to buf and sorted-inserts c.
func replaceAtBuf(buf, vals []vocab.Term, i int, c vocab.Term) []vocab.Term {
	buf = append(buf, vals[:i]...)
	buf = append(buf, vals[i+1:]...)
	return insertSortedBuf(buf, c)
}

// insertSortedBuf inserts t into the sorted slice buf in place (growing it by
// one). The lattice moves only insert values distinct from every element, so
// ties cannot occur.
func insertSortedBuf(buf []vocab.Term, t vocab.Term) []vocab.Term {
	pos := len(buf)
	for j, v := range buf {
		if t < v {
			pos = j
			break
		}
	}
	buf = append(buf, 0)
	copy(buf[pos+1:], buf[pos:])
	buf[pos] = t
	return buf
}

// minimalAddable returns the most general domain values of variable i that
// are incomparable with all current values: candidates t ∈ domain(i) such
// that no immediate parent of t is itself addable, in ascending order. The
// result lives in per-session scratch, valid until the next call.
//
// Every in-domain ancestor of an addable t is either addable or generalizes
// a current value (an ancestor that specializes one would make t comparable
// too), so a minimal addable t sits just below terms that generalize current
// values. The walk therefore starts at the domain's most general values and
// descends through in-domain children only while the term generalizes a
// current value, instead of testing every domain term.
func (sp *Space) minimalAddable(i int, vals []vocab.Term) []vocab.Term {
	addable := func(t vocab.Term) bool {
		return sp.tab.inDomain(i, t) && compatible(sp.Voc, vals, -1, t)
	}
	ms := sp.scratch()
	seen := ms.walkSeen
	if len(seen) < sp.tab.words {
		seen = make([]uint64, sp.tab.words)
		ms.walkSeen = seen
	}
	stack := append(ms.walkBuf[:0], sp.tab.minVals[i]...)
	for _, t := range stack {
		seen[t>>6] |= 1 << (uint(t) & 63)
	}
	out := ms.addBuf[:0]
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		below, above := false, false // t generalizes / specializes a value
		for _, v := range vals {
			below = below || sp.Voc.Leq(t, v)
			above = above || sp.Voc.Leq(v, t)
		}
		if !below && !above {
			minimal := true
			for _, p := range sp.Voc.Parents(t) {
				if addable(p) {
					minimal = false
					break
				}
			}
			if minimal {
				out = append(out, t)
			}
			continue
		}
		if above {
			continue // every specialization of t is comparable too
		}
		for _, c := range sp.Voc.Children(t) {
			if sp.tab.inDomain(i, c) && seen[c>>6]&(1<<(uint(c)&63)) == 0 {
				seen[c>>6] |= 1 << (uint(c) & 63)
				stack = append(stack, c)
			}
		}
	}
	clear(seen)
	slices.Sort(out)
	ms.walkBuf, ms.addBuf = stack, out
	return out
}

// moreSuccessors emits MORE-fact extensions of a: adding a minimal pool
// candidate, or replacing an existing MORE fact by a pool candidate that
// specializes it with nothing from the pool strictly between.
func (sp *Space) moreSuccessors(dst []uint32, a Assignment) []uint32 {
	pool := sp.MoreCandidates
	covered := func(f fact.Fact) bool {
		for _, g := range a.More {
			if fact.Leq(sp.Voc, f, g) || fact.Leq(sp.Voc, g, f) {
				return true
			}
		}
		return false
	}
	// Add a pool fact that is minimal among addable pool facts.
	for _, f := range pool {
		if covered(f) {
			continue
		}
		minimal := true
		for _, g := range pool {
			if g != f && fact.Leq(sp.Voc, g, f) && !covered(g) {
				minimal = false
				break
			}
		}
		if minimal {
			nm := make(fact.Set, 0, len(a.More)+1)
			nm = append(nm, a.More...)
			nm = append(nm, f)
			dst = sp.emitCand(dst, a,
				Assignment{Vals: a.Vals, More: fact.Reduce(sp.Voc, nm)}, -1)
		}
	}
	// Specialize an existing MORE fact one pool step.
	for mi, g := range a.More {
		for _, f := range pool {
			if f == g || !fact.Leq(sp.Voc, g, f) {
				continue
			}
			direct := true
			for _, h := range pool {
				if h != f && h != g && fact.Leq(sp.Voc, g, h) && fact.Leq(sp.Voc, h, f) {
					direct = false
					break
				}
			}
			if !direct {
				continue
			}
			nm := make(fact.Set, 0, len(a.More))
			nm = append(nm, a.More[:mi]...)
			nm = append(nm, a.More[mi+1:]...)
			nm = append(nm, f)
			dst = sp.emitCand(dst, a,
				Assignment{Vals: a.Vals, More: fact.Reduce(sp.Voc, nm)}, -1)
		}
	}
	return dst
}

// Predecessors generates the immediate predecessors of a within 𝒜:
// generalize one value one Hasse step (with antichain absorption), drop one
// value where the multiplicity lower bound allows, or drop/generalize a MORE
// fact. Results are deduplicated and sorted by key. A node that did not
// come from this Space is interned first.
func (sp *Space) Predecessors(a Assignment) []Assignment {
	sp.idBuf = sp.AppendPredecessorIDs(sp.idBuf[:0], sp.ID(a))
	return sp.nodesOf(sp.idBuf)
}

// AppendPredecessorIDs appends the ids of the immediate predecessors of
// node id (see Predecessors) to dst and returns the extended slice.
func (sp *Space) AppendPredecessorIDs(dst []uint32, id uint32) []uint32 {
	a := sp.nodes[id]
	start := len(dst)
	for i := range sp.Vars {
		vals := a.Vals[i]
		for vi, v := range vals {
			for _, p := range sp.Voc.Parents(v) {
				if !sp.tab.inDomain(i, p) {
					continue
				}
				nv := append(sp.valBuf[:0], vals[:vi]...)
				nv = append(nv, vals[vi+1:]...)
				nv = append(nv, p)
				sp.valBuf = sp.Voc.AppendReduceAntichain(nv, nv)
				dst = sp.emitRow(dst, a, i, sp.valBuf[len(nv):])
			}
		}
		if len(vals) > sp.Vars[i].Mult.Min {
			for vi := range vals {
				nv := append(sp.valBuf[:0], vals[:vi]...)
				nv = append(nv, vals[vi+1:]...)
				sp.valBuf = nv
				dst = sp.emitRow(dst, a, i, nv)
			}
		}
	}
	for mi := range a.More {
		nm := make(fact.Set, 0, len(a.More)-1)
		nm = append(nm, a.More[:mi]...)
		nm = append(nm, a.More[mi+1:]...)
		dst = sp.emitCand(dst, a, Assignment{Vals: a.Vals, More: nm}, -1)
		// Generalize to a pool fact directly below.
		for _, g := range sp.MoreCandidates {
			if g != a.More[mi] && fact.Leq(sp.Voc, g, a.More[mi]) {
				nm2 := make(fact.Set, 0, len(a.More))
				nm2 = append(nm2, a.More[:mi]...)
				nm2 = append(nm2, a.More[mi+1:]...)
				nm2 = append(nm2, g)
				dst = sp.emitCand(dst, a,
					Assignment{Vals: a.Vals, More: fact.Reduce(sp.Voc, nm2)}, -1)
			}
		}
	}
	return sp.finishMoves(dst, start)
}
