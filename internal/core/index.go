package core

import (
	"math/bits"

	"oassis/internal/assign"
	"oassis/internal/vocab"
)

// indexMin is the id-set size past which the classifier indexes a set.
// Below it the set's queries scan it, so a small session (a serving
// tenant's lattice of a few dozen nodes) never allocates postings.
const indexMin = 32

// termIndex narrows the classifier's order queries by the taxonomy: it
// posts the members of each id set under (variable, term) keys, so that a
// query reads the few postings its node's values select instead of the
// whole set. A member w is posted in up under every ancestor-or-self of
// each of its values, so the members with a ≤ w sit in the up posting of
// every value of a, and a query reads the shortest of those. It is posted
// in down under its first value only, so the members with w ≤ a sit in
// the down postings of the ancestors-or-self of a's values. Members with
// no value to key (empty rows, or only MORE facts) are kept in bare and
// read by every down query. Values are vocabulary terms, as every Space
// constructor and lattice move guarantees. Entries of members that left
// their set stay until a read drops them.
//
// The index also holds every node's order signature (sig), with which the
// classifier rejects most candidates in one word test before confirming
// the rest with Space.Leq, and counts those confirmations. A term's
// ancestors-or-self and their hash bits are read off its closure row on
// the term's first use and kept, so no post, query or signature decodes a
// row twice.
type termIndex struct {
	on    [3]bool // per set: indexed, and so posted and read here
	voc   *vocab.Vocabulary
	terms uint32      // vocabulary size: keys are variable·terms + term
	cell  []int32     // by key: 1 + position in cells, 0 when never posted
	cells []postings  // postings by key, allocated on first post
	bare  [3][]uint32 // per set: members without values

	anc   []termAnc    // by term: its ancestors-or-self, read on first use
	ancs  []vocab.Term // the used terms' ancestors-or-self, each ascending
	sigs  []sig        // by node id: its signature, zero until signed
	union []vocab.Term // ancestorsOf's scratch
	stamp []uint32     // by term: the ancestorsOf call that last listed it
	epoch uint32
	leqs  uint64 // Space.Leq calls that passed the signature test
}

// postings holds one key's members of each id set.
type postings struct{ up, down [3][]uint32 }

// termAnc locates a term's ancestors-or-self in termIndex.ancs, hi 0 until
// the term's first use (the list holds at least the term itself), and
// holds their hash bits.
type termAnc struct {
	lo, hi int32
	bits   uint64
}

// sig is a node's order signature: vm holds a hash bit for each of its
// values, am one for each ancestor-or-self of each value, the bits of
// variable i rotated by sigRot·i. a ≤ b gives every value of a an
// ancestor-or-self among b's values of the same variable, so it implies
// vm(a) &^ am(b) == 0: a pair that fails the test is unordered, whatever
// its MORE facts.
type sig struct{ vm, am uint64 }

// sigRot is the rotation that separates the variables' signature bits.
const sigRot = 23

// hashBit is term t's signature bit before rotation: the top six bits of
// its Fibonacci hash pick it.
func hashBit(t vocab.Term) uint64 { return 1 << (uint32(t) * 0x9E3779B9 >> 26) }

func newTermIndex(sp *assign.Space) *termIndex {
	n := uint32(sp.Voc.Len())
	return &termIndex{voc: sp.Voc, terms: n, cell: make([]int32, len(sp.Vars)*int(n)),
		anc: make([]termAnc, n), stamp: make([]uint32, n)}
}

// find returns the postings of variable i's term t, nil when none exist.
// The pointer is valid until the next post.
func (x *termIndex) find(i int, t vocab.Term) *postings {
	if c := x.cell[uint32(i)*x.terms+uint32(t)]; c != 0 {
		return &x.cells[c-1]
	}
	return nil
}

// at is find that allocates the key's postings on first use.
func (x *termIndex) at(i int, t vocab.Term) *postings {
	k := uint32(i)*x.terms + uint32(t)
	if x.cell[k] == 0 {
		x.cells = append(x.cells, postings{})
		x.cell[k] = int32(len(x.cells))
	}
	return &x.cells[x.cell[k]-1]
}

// ancestorsOrSelf returns t and its ancestors in ascending order, and
// their hash bits, decoding t's closure row on its first use only. The
// slice must not be modified.
func (x *termIndex) ancestorsOrSelf(t vocab.Term) ([]vocab.Term, uint64) {
	a := &x.anc[t]
	if a.hi == 0 {
		a.lo = int32(len(x.ancs))
		x.ancs = x.voc.AppendAncestorsOrSelf(x.ancs, t)
		a.hi = int32(len(x.ancs))
		for _, u := range x.ancs[a.lo:] {
			a.bits |= hashBit(u)
		}
	}
	return x.ancs[a.lo:a.hi:a.hi], a.bits
}

// ancestorsOf returns the union of the ancestors-or-self of the values vs,
// each term once: each value's list in ascending order, values in order.
// A single value's list is returned as it is kept; a union is built in
// scratch, valid until the next call. Neither may be modified.
func (x *termIndex) ancestorsOf(vs []vocab.Term) []vocab.Term {
	if len(vs) == 1 {
		anc, _ := x.ancestorsOrSelf(vs[0])
		return anc
	}
	if x.epoch++; x.epoch == 0 { // wrapped: forget every stamp
		clear(x.stamp)
		x.epoch = 1
	}
	union := x.union[:0]
	for _, v := range vs {
		anc, _ := x.ancestorsOrSelf(v)
		for _, t := range anc {
			if x.stamp[t] != x.epoch {
				x.stamp[t] = x.epoch
				union = append(union, t)
			}
		}
	}
	x.union = union
	return union
}

// sign builds node id's signature unless it has one.
func (x *termIndex) sign(sp *assign.Space, id uint32) {
	for int(id) >= len(x.sigs) {
		x.sigs = append(x.sigs, sig{})
	}
	if x.sigs[id].am != 0 {
		return
	}
	var s sig // a node without values keeps the zero signature
	for i, vs := range sp.Node(id).Vals {
		var vm, am uint64
		for _, v := range vs {
			_, ab := x.ancestorsOrSelf(v)
			vm |= hashBit(v)
			am |= ab
		}
		s.vm |= bits.RotateLeft64(vm, sigRot*i)
		s.am |= bits.RotateLeft64(am, sigRot*i)
	}
	x.sigs[id] = s
}

// mayLeq reports whether nodes a ≤ b pass the signature test, which every
// ordered pair does. Both must have been signed.
func (x *termIndex) mayLeq(a, b uint32) bool { return x.sigs[a].vm&^x.sigs[b].am == 0 }

// post indexes member id of set, whose node is a.
func (x *termIndex) post(set int, id uint32, a assign.Assignment) {
	posted := false
	for i, vs := range a.Vals {
		if !posted && len(vs) > 0 {
			p := x.at(i, vs[0])
			p.down[set] = append(p.down[set], id)
			posted = true
		}
		for _, t := range x.ancestorsOf(vs) {
			p := x.at(i, t)
			p.up[set] = append(p.up[set], id)
		}
	}
	if !posted {
		x.bare[set] = append(x.bare[set], id)
	}
}

// above calls fn on the live members of set that may lie at or above a —
// those in the shortest up posting among a's values, or all of members
// when a has no values — until fn returns true, and reports whether it
// did.
func (x *termIndex) above(set int, members []uint32, a assign.Assignment, flags []uint8, fn func(uint32) bool) bool {
	var best *postings
	for i, vs := range a.Vals {
		for _, v := range vs {
			p := x.find(i, v)
			if p == nil {
				return false // no member generalizes to v
			}
			if best == nil || len(p.up[set]) < len(best.up[set]) {
				best = p
			}
		}
	}
	if best == nil {
		return scanBack(members, fn)
	}
	var stop bool
	best.up[set], stop = read(best.up[set], flags, setFlags[set], fn)
	return stop
}

// below calls fn on the live members of set that may lie at or below a —
// those in the down postings of the ancestors-or-self of a's values, and
// the bare ones — until fn returns true, and reports whether it did.
func (x *termIndex) below(set int, a assign.Assignment, flags []uint8, fn func(uint32) bool) bool {
	flag := setFlags[set]
	var stop bool
	for i, vs := range a.Vals {
		for _, t := range x.ancestorsOf(vs) {
			if p := x.find(i, t); p != nil && len(p.down[set]) > 0 {
				if p.down[set], stop = read(p.down[set], flags, flag, fn); stop {
					return true
				}
			}
		}
	}
	x.bare[set], stop = read(x.bare[set], flags, flag, fn)
	return stop
}

// read calls fn on the ids of posting l whose flags carry flag, until fn
// returns true, dropping the others in place; it returns the compacted
// posting and whether fn stopped the walk.
func read(l []uint32, flags []uint8, flag uint8, fn func(uint32) bool) ([]uint32, bool) {
	w := 0
	for r, id := range l {
		if flags[id]&flag == 0 {
			continue
		}
		l[w] = id
		w++
		if fn(id) {
			w += copy(l[w:], l[r+1:])
			return l[:w], true
		}
	}
	return l[:w], false
}

// scanBack calls fn on set's ids from last to first until fn returns true.
// Walking backwards tolerates fn swap-removing the visited id.
func scanBack(set []uint32, fn func(uint32) bool) bool {
	for k := len(set) - 1; k >= 0; k-- {
		if fn(set[k]) {
			return true
		}
	}
	return false
}
