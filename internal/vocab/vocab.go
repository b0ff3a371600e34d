// Package vocab implements the vocabulary of Definition 2.1 in the paper:
// a set of element names and a set of relation names, each equipped with a
// semantic partial order. Following the paper's convention, a ≤ b means
// "a is more general than (or equal to) b"; e.g. Sport ≤ Biking because
// biking is a sport.
//
// The orders are stored as Hasse diagrams (immediate generalization /
// specialization edges). A Vocabulary is mutable while it is being built;
// Freeze makes it immutable and safe for concurrent readers, and stores
// the reachability closure as bit rows, so Leq is a single bit test.
package vocab

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Term identifies an element or a relation of a Vocabulary. Terms are dense
// small integers, suitable for use as slice indexes and map keys. The zero
// Term is the first term added; use None for "no term".
type Term int32

// None is the invalid Term.
const None Term = -1

// Any is the distinguished wildcard term written [] in OASSIS-QL: it is more
// general than every term (Any ≤ t for all t) and belongs to no vocabulary.
const Any Term = -2

// Kind distinguishes elements from relations.
type Kind uint8

// The two term kinds of Definition 2.1.
const (
	Element Kind = iota
	Relation
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Relation:
		return "relation"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Vocabulary is the pair of partially ordered name sets (E, ≤E, R, ≤R).
type Vocabulary struct {
	names  []string
	kinds  []Kind
	byName map[string]Term

	parents  [][]Term // immediate generalizations (more general terms)
	children [][]Term // immediate specializations (more specific terms)

	frozen bool

	// ancBits is the frozen reflexive-transitive closure as a bitmap: bit a
	// of row b is set iff a ≤ b. Rows are ancWords words wide. Filled at
	// Freeze time; it turns Leq into a single word-indexed bit test, and a
	// row decodes to the term's ancestors in ascending order.
	ancBits  []uint64
	ancWords int
}

// New returns an empty vocabulary.
func New() *Vocabulary {
	return &Vocabulary{byName: make(map[string]Term)}
}

// Len reports the total number of terms (elements plus relations).
func (v *Vocabulary) Len() int { return len(v.names) }

// CountKind reports the number of terms of the given kind.
func (v *Vocabulary) CountKind(k Kind) int {
	n := 0
	for _, kk := range v.kinds {
		if kk == k {
			n++
		}
	}
	return n
}

// AddElement interns an element name and returns its Term. Adding an
// existing element name is idempotent; adding a name that is already a
// relation is an error.
func (v *Vocabulary) AddElement(name string) (Term, error) { return v.add(name, Element) }

// AddRelation interns a relation name and returns its Term.
func (v *Vocabulary) AddRelation(name string) (Term, error) { return v.add(name, Relation) }

// MustAddElement is AddElement that panics on error. Intended for tests and
// hand-built sample vocabularies.
func (v *Vocabulary) MustAddElement(name string) Term {
	t, err := v.AddElement(name)
	if err != nil {
		panic(err)
	}
	return t
}

// MustAddRelation is AddRelation that panics on error.
func (v *Vocabulary) MustAddRelation(name string) Term {
	t, err := v.AddRelation(name)
	if err != nil {
		panic(err)
	}
	return t
}

func (v *Vocabulary) add(name string, k Kind) (Term, error) {
	if v.frozen {
		return None, fmt.Errorf("vocab: adding %q to frozen vocabulary", name)
	}
	if name == "" {
		return None, fmt.Errorf("vocab: empty term name")
	}
	if t, ok := v.byName[name]; ok {
		if v.kinds[t] != k {
			return None, fmt.Errorf("vocab: %q already exists as a %v", name, v.kinds[t])
		}
		return t, nil
	}
	t := Term(len(v.names))
	v.names = append(v.names, name)
	v.kinds = append(v.kinds, k)
	v.parents = append(v.parents, nil)
	v.children = append(v.children, nil)
	v.byName[name] = t
	return t, nil
}

// Lookup returns the term with the given name.
func (v *Vocabulary) Lookup(name string) (Term, bool) {
	t, ok := v.byName[name]
	return t, ok
}

// Name returns the name of t. It panics if t is out of range.
func (v *Vocabulary) Name(t Term) string { return v.names[t] }

// KindOf returns the kind of t.
func (v *Vocabulary) KindOf(t Term) Kind { return v.kinds[t] }

// Contains reports whether t is a term of this vocabulary.
func (v *Vocabulary) Contains(t Term) bool { return t >= 0 && int(t) < len(v.names) }

// AddOrder records general ≤ specific in the order of the terms' kind, i.e.
// that specific is an immediate specialization of general. Both terms must
// exist and have the same kind. Duplicate edges are ignored.
func (v *Vocabulary) AddOrder(general, specific Term) error {
	if v.frozen {
		return fmt.Errorf("vocab: adding order edge to frozen vocabulary")
	}
	if !v.Contains(general) || !v.Contains(specific) {
		return fmt.Errorf("vocab: order edge with unknown term")
	}
	if general == specific {
		return fmt.Errorf("vocab: self edge on %q", v.names[general])
	}
	if v.kinds[general] != v.kinds[specific] {
		return fmt.Errorf("vocab: order edge between %v %q and %v %q",
			v.kinds[general], v.names[general], v.kinds[specific], v.names[specific])
	}
	for _, c := range v.children[general] {
		if c == specific {
			return nil
		}
	}
	v.children[general] = append(v.children[general], specific)
	v.parents[specific] = append(v.parents[specific], general)
	return nil
}

// MustAddOrder is AddOrder that panics on error.
func (v *Vocabulary) MustAddOrder(general, specific Term) {
	if err := v.AddOrder(general, specific); err != nil {
		panic(err)
	}
}

// Parents returns the immediate generalizations of t. The returned slice is
// owned by the vocabulary and must not be modified.
func (v *Vocabulary) Parents(t Term) []Term { return v.parents[t] }

// Children returns the immediate specializations of t. The returned slice is
// owned by the vocabulary and must not be modified.
func (v *Vocabulary) Children(t Term) []Term { return v.children[t] }

// Roots returns the most general terms of the given kind (terms without
// parents), in term order.
func (v *Vocabulary) Roots(k Kind) []Term {
	var roots []Term
	for t := range v.names {
		if v.kinds[t] == k && len(v.parents[t]) == 0 {
			roots = append(roots, Term(t))
		}
	}
	return roots
}

// Validate checks that both orders are acyclic, using Kahn's algorithm.
func (v *Vocabulary) Validate() error {
	indeg := make([]int, len(v.names))
	for t := range v.names {
		indeg[t] = len(v.parents[t])
	}
	queue := make([]Term, 0, len(v.names))
	for t := range v.names {
		if indeg[t] == 0 {
			queue = append(queue, Term(t))
		}
	}
	processed := 0
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for _, c := range v.children[t] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if processed != len(v.names) {
		for t := range v.names {
			if indeg[t] > 0 {
				return fmt.Errorf("vocab: order cycle through %q", v.names[t])
			}
		}
	}
	return nil
}

// Freeze validates the vocabulary and makes it immutable. It precomputes
// the reflexive-transitive closure as one bit row per term, so that Leq is
// a single lock-free bit test afterward. After Freeze the vocabulary is safe
// for concurrent use.
func (v *Vocabulary) Freeze() error {
	if v.frozen {
		return nil
	}
	if err := v.Validate(); err != nil {
		return err
	}
	words := (len(v.names) + 63) / 64
	v.ancWords = words
	v.ancBits = make([]uint64, words*len(v.names))
	done := make([]bool, len(v.names))
	// fill ORs the parents' finished rows into t's row; Validate has ruled
	// out cycles, so the recursion ends at the roots.
	var fill func(t Term) []uint64
	fill = func(t Term) []uint64 {
		row := v.ancBits[int(t)*words : (int(t)+1)*words]
		if done[t] {
			return row
		}
		done[t] = true
		row[t>>6] |= 1 << (uint(t) & 63) // reflexive: t ≤ t
		for _, p := range v.parents[t] {
			for w, x := range fill(p) {
				row[w] |= x
			}
		}
		return row
	}
	for t := range v.names {
		fill(Term(t))
	}
	v.frozen = true
	return nil
}

// Frozen reports whether Freeze has been called.
func (v *Vocabulary) Frozen() bool { return v.frozen }

// ancestors returns the set of strict ancestors (proper generalizations) of
// an unfrozen vocabulary's term t, recomputed on every call because later
// AddOrder/Add calls would invalidate any memo. Frozen vocabularies read
// their bit rows instead.
func (v *Vocabulary) ancestors(t Term) map[Term]struct{} {
	s := make(map[Term]struct{})
	v.collectAncestors(t, s)
	return s
}

func (v *Vocabulary) collectAncestors(t Term, into map[Term]struct{}) {
	for _, p := range v.parents[t] {
		if _, seen := into[p]; seen {
			continue
		}
		into[p] = struct{}{}
		v.collectAncestors(p, into)
	}
}

// Leq reports whether a ≤ b, i.e. a is equal to b or a proper
// generalization of b. Terms of different kinds are never comparable.
// The wildcard Any is ≤ everything.
func (v *Vocabulary) Leq(a, b Term) bool {
	if v.frozen && a >= 0 && b >= 0 && int(a) < len(v.names) && int(b) < len(v.names) {
		// Frozen fast path: one bit test. Different-kind pairs read a zero
		// bit because ancestor closures never cross kinds.
		return v.ancBits[int(b)*v.ancWords+int(a)>>6]&(1<<(uint(a)&63)) != 0
	}
	if a == Any {
		return b == Any || v.Contains(b)
	}
	if b == Any {
		return false
	}
	if a == b {
		return v.Contains(a)
	}
	if !v.Contains(a) || !v.Contains(b) || v.kinds[a] != v.kinds[b] {
		return false
	}
	_, ok := v.ancestors(b)[a]
	return ok
}

// Lt reports whether a < b (strict generalization).
func (v *Vocabulary) Lt(a, b Term) bool { return a != b && v.Leq(a, b) }

// Comparable reports whether a ≤ b or b ≤ a.
func (v *Vocabulary) Comparable(a, b Term) bool { return v.Leq(a, b) || v.Leq(b, a) }

// Ancestors returns the proper generalizations of t in ascending Term order;
// a term outside the vocabulary (None, Any, or ≥ Len) has none.
func (v *Vocabulary) Ancestors(t Term) []Term {
	out := v.AppendAncestorsOrSelf(nil, t)
	return slices.DeleteFunc(out, func(a Term) bool { return a == t })
}

// AppendAncestorsOrSelf appends t and its proper generalizations to dst in
// ascending Term order and returns the extended slice; a term outside the
// vocabulary appends nothing. On a frozen vocabulary it decodes t's closure
// row without allocating beyond dst's growth.
func (v *Vocabulary) AppendAncestorsOrSelf(dst []Term, t Term) []Term {
	if !v.Contains(t) {
		return dst
	}
	if v.frozen {
		row := v.ancBits[int(t)*v.ancWords : (int(t)+1)*v.ancWords]
		for w, word := range row {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, Term(w<<6+bits.TrailingZeros64(word)))
			}
		}
		return dst
	}
	start := len(dst)
	dst = append(dst, t)
	for a := range v.ancestors(t) {
		dst = append(dst, a)
	}
	slices.Sort(dst[start:])
	return dst
}

// Descendants returns the proper specializations of t in ascending Term
// order; a term outside the vocabulary has none. It is computed by BFS (not
// memoized); prefer Leq for point queries.
func (v *Vocabulary) Descendants(t Term) []Term {
	if !v.Contains(t) {
		return nil
	}
	seen := map[Term]struct{}{t: {}}
	queue := []Term{t}
	var out []Term
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range v.children[cur] {
			if _, ok := seen[c]; ok {
				continue
			}
			seen[c] = struct{}{}
			out = append(out, c)
			queue = append(queue, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Depth returns the length of the longest generalization chain ending at t
// (a root has depth 0).
func (v *Vocabulary) Depth(t Term) int {
	memo := make(map[Term]int)
	var depth func(Term) int
	depth = func(x Term) int {
		if d, ok := memo[x]; ok {
			return d
		}
		d := 0
		for _, p := range v.parents[x] {
			if pd := depth(p) + 1; pd > d {
				d = pd
			}
		}
		memo[x] = d
		return d
	}
	return depth(t)
}

// IsAntichain reports whether no two distinct terms in ts are comparable.
func (v *Vocabulary) IsAntichain(ts []Term) bool {
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if v.Comparable(ts[i], ts[j]) {
				return false
			}
		}
	}
	return true
}

// AppendReduceAntichain appends to dst the canonical antichain
// representation of ts — ts without every term that is a proper
// generalization of another term in ts (maximally specific values only),
// sorted and deduplicated — and returns the extended slice. ts must not
// overlap dst's spare capacity.
func (v *Vocabulary) AppendReduceAntichain(dst, ts []Term) []Term {
	start := len(dst)
	for i, a := range ts {
		redundant := false
		for j, b := range ts {
			if i == j {
				continue
			}
			if v.Lt(a, b) || (a == b && j < i) {
				redundant = true
				break
			}
		}
		if !redundant {
			dst = append(dst, a)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Names returns the names of ts, for diagnostics.
func (v *Vocabulary) Names(ts []Term) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = v.names[t]
	}
	return out
}
