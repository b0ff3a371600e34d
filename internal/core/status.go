// Package core implements the paper's primary contribution: the query
// evaluation algorithm of Sections 4–5. It contains the vertical algorithm
// (Algorithm 1) with its inference scheme (Observation 4.4), the multi-user
// engine with per-member question queues (§4.2, §6.1 QueueManager), the
// specialization-question and user-guided-pruning optimizations (§4.1,
// §6.2), the CrowdCache answer store enabling threshold replay (§6.3), and
// the Horizontal and Naive baseline algorithms of §6.4.
package core

import (
	"slices"

	"oassis/internal/assign"
)

// Status is the classification state of an assignment.
type Status uint8

// Classification states.
const (
	Unclassified Status = iota
	Significant
	Insignificant
)

func (s Status) String() string {
	switch s {
	case Significant:
		return "significant"
	case Insignificant:
		return "insignificant"
	default:
		return "unclassified"
	}
}

// The classifier's three id sets.
const (
	setUncl  = iota // tracked nodes still unclassified
	setSig          // maximal significant anchors
	setInsig        // minimal insignificant anchors
)

// Per-node flag bits: whether the node's status slot is authoritative, and
// its membership in each id set (setFlags maps a set to its bit).
const (
	flagTracked uint8 = 1 << iota
	flagUncl
	flagSig
	flagInsig
)

var setFlags = [3]uint8{setUncl: flagUncl, setSig: flagSig, setInsig: flagInsig}

// classifier tracks the classification of the whole (lazily explored)
// assignment lattice without materializing closures: it keeps the maximal
// known-significant nodes and the minimal known-insignificant nodes as
// anchors (Observation 4.4: significance is downward closed, insignificance
// upward closed). Nodes seen once are registered and their status is
// maintained incrementally — each new anchor settles the still-unclassified
// registered nodes it implies — so repeated status queries over the
// engine's node pool are O(1). Nodes are the Space's dense ids, and
// per-node state is flat, indexed by them; the zero value of a status slot
// is Unclassified.
//
// Every order question the classifier asks — is a node under a significant
// anchor or over an insignificant one, which anchors does a new anchor
// absorb, which unclassified nodes does it settle — reads candidates from
// one of three id sets and confirms each with Space.Leq, the only order
// test. While a set is small its candidates are the whole set; once it
// passes indexMin, a termIndex narrows them to the members whose values
// can stand in the asked relation to the query node's values.
type classifier struct {
	sp    *assign.Space
	sig   []uint32 // ids of the maximal significant anchors
	insig []uint32 // ids of the minimal insignificant anchors
	uncl  []uint32 // ids of the tracked nodes still unclassified, unordered

	status_ []Status // by id; zero value Unclassified
	flags   []uint8  // by id: flag bits
	unclPos []uint32 // by id: 1 + position in uncl, 0 when absent

	idx *termIndex // nil until the first set passes indexMin

	// onSignificant, when set, is invoked once for every tracked node that
	// becomes significant (explicitly or by inference); the engine uses it
	// to schedule lattice expansion incrementally.
	onSignificant func(id uint32)
}

func newClassifier(sp *assign.Space) *classifier {
	return &classifier{sp: sp}
}

// grow extends the flat per-node state to cover id.
func (c *classifier) grow(id uint32) {
	for uint32(len(c.status_)) <= id {
		c.status_ = append(c.status_, Unclassified)
		c.flags = append(c.flags, 0)
		c.unclPos = append(c.unclPos, 0)
	}
}

// register adds node id to the watch list, computing its status against
// the current anchors once.
func (c *classifier) register(id uint32) Status {
	c.grow(id)
	if c.flags[id]&flagTracked != 0 {
		return c.status_[id]
	}
	a := c.sp.Node(id)
	st := Unclassified
	if c.underSig(a) {
		st = Significant
	} else if c.overInsig(a) {
		st = Insignificant
	}
	c.flags[id] |= flagTracked
	c.status_[id] = st
	if st == Unclassified {
		c.unclPos[id] = uint32(len(c.uncl)) + 1
		c.uncl = append(c.uncl, id)
		c.flags[id] |= flagUncl
		c.post(setUncl, id, a)
	} else if st == Significant && c.onSignificant != nil {
		c.onSignificant(id)
	}
	return st
}

// underSig reports whether a lies at or below some significant anchor.
func (c *classifier) underSig(a assign.Assignment) bool {
	return c.above(setSig, a, func(s uint32) bool { return c.sp.Leq(a, c.sp.Node(s)) })
}

// overInsig reports whether a lies at or above some insignificant anchor.
func (c *classifier) overInsig(a assign.Assignment) bool {
	return c.below(setInsig, a, func(i uint32) bool { return c.sp.Leq(c.sp.Node(i), a) })
}

// status returns the classification of node id, registering it if new.
func (c *classifier) status(id uint32) Status {
	if int(id) < len(c.flags) && c.flags[id]&flagTracked != 0 {
		return c.status_[id]
	}
	return c.register(id)
}

// markSignificant records that node id (and hence every predecessor of
// it) is significant. The anchor list keeps only maximal elements, and
// only the tracked unclassified nodes below it are settled.
func (c *classifier) markSignificant(id uint32) {
	c.grow(id)
	a := c.sp.Node(id)
	if c.underSig(a) {
		c.setStatus(id, Significant)
		return // already implied
	}
	absorbed := false
	c.below(setSig, a, func(s uint32) bool {
		if c.sp.Leq(c.sp.Node(s), a) {
			c.flags[s] &^= flagSig
			absorbed = true
		}
		return false
	})
	if absorbed {
		c.sig = c.compact(c.sig, flagSig)
	}
	c.sig = append(c.sig, id)
	c.flags[id] |= flagSig
	c.post(setSig, id, a)
	c.setStatus(id, Significant)
	c.below(setUncl, a, func(w uint32) bool {
		if c.sp.Leq(c.sp.Node(w), a) {
			c.setStatus(w, Significant)
		}
		return false
	})
}

// markInsignificant records that node id (and hence every successor of
// it) is insignificant.
func (c *classifier) markInsignificant(id uint32) {
	c.grow(id)
	a := c.sp.Node(id)
	if c.overInsig(a) {
		c.setStatus(id, Insignificant)
		return
	}
	absorbed := false
	c.above(setInsig, a, func(i uint32) bool {
		if c.sp.Leq(a, c.sp.Node(i)) {
			c.flags[i] &^= flagInsig
			absorbed = true
		}
		return false
	})
	if absorbed {
		c.insig = c.compact(c.insig, flagInsig)
	}
	c.insig = append(c.insig, id)
	c.flags[id] |= flagInsig
	c.post(setInsig, id, a)
	c.setStatus(id, Insignificant)
	c.above(setUncl, a, func(w uint32) bool {
		if c.sp.Leq(a, c.sp.Node(w)) {
			c.setStatus(w, Insignificant)
		}
		return false
	})
}

// setStatus records st as the authoritative status of the interned node
// id, taking it out of the unclassified set.
func (c *classifier) setStatus(id uint32, st Status) {
	prev := c.status_[id]
	c.flags[id] |= flagTracked
	c.status_[id] = st
	if p := c.unclPos[id]; p != 0 {
		last := c.uncl[len(c.uncl)-1]
		c.uncl[p-1] = last
		c.unclPos[last] = p
		c.uncl = c.uncl[:len(c.uncl)-1]
		c.unclPos[id] = 0
		c.flags[id] &^= flagUncl
	}
	if st == Significant && prev != Significant && c.onSignificant != nil {
		c.onSignificant(id)
	}
}

// compact drops from the anchor list the ids whose flag bit was cleared,
// keeping the survivors in order.
func (c *classifier) compact(list []uint32, flag uint8) []uint32 {
	return slices.DeleteFunc(list, func(id uint32) bool { return c.flags[id]&flag == 0 })
}

// members returns the id list of set.
func (c *classifier) members(set int) []uint32 {
	switch set {
	case setSig:
		return c.sig
	case setInsig:
		return c.insig
	default:
		return c.uncl
	}
}

// indexed reports whether set's queries read the term index.
func (c *classifier) indexed(set int) bool { return c.idx != nil && c.idx.on[set] }

// above calls fn on the members of set that may lie at or above a, until
// fn returns true, and reports whether it did; below is its dual for the
// members that may lie at or below a. Unindexed, both walk the whole set
// from its end, so fn may take the visited member out of uncl; indexed,
// they read the term index.
func (c *classifier) above(set int, a assign.Assignment, fn func(uint32) bool) bool {
	if !c.indexed(set) {
		return scanBack(c.members(set), fn)
	}
	return c.idx.above(set, c.members(set), a, c.flags, fn)
}

func (c *classifier) below(set int, a assign.Assignment, fn func(uint32) bool) bool {
	if !c.indexed(set) {
		return scanBack(c.members(set), fn)
	}
	return c.idx.below(set, a, c.flags, fn)
}

// post indexes id, just added to set, once the set is indexed; the first
// time the set passes indexMin it indexes every member instead.
func (c *classifier) post(set int, id uint32, a assign.Assignment) {
	switch {
	case c.indexed(set):
		c.idx.post(set, id, a)
	case len(c.members(set)) > indexMin:
		if c.idx == nil {
			c.idx = newTermIndex(c.sp)
		}
		c.idx.on[set] = true
		for _, m := range c.members(set) {
			c.idx.post(set, m, c.sp.Node(m))
		}
	}
}
