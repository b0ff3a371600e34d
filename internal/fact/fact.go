// Package fact implements facts and fact-sets over a vocabulary
// (Definition 2.2 of the paper) together with their semantic partial order
// (Definition 2.5): a fact f = ⟨e1, r, e2⟩ is more general than f' iff each
// component is more general, and a fact-set A is more general than B iff
// every fact of A has a more specific counterpart in B. A transaction T
// implies a fact-set A when A ≤ T.
package fact

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"oassis/internal/vocab"
)

// Fact is a triple ⟨Subject, Rel, Object⟩ ∈ E × R × E.
type Fact struct {
	S vocab.Term // subject element
	R vocab.Term // relation
	O vocab.Term // object element
}

// Less orders facts lexicographically by (S, R, O); it is used only for
// canonical sorting and has no semantic meaning.
func (f Fact) Less(g Fact) bool {
	if f.S != g.S {
		return f.S < g.S
	}
	if f.R != g.R {
		return f.R < g.R
	}
	return f.O < g.O
}

// Compare orders facts as Less does, in the form slices.SortFunc takes.
func Compare(f, g Fact) int {
	switch {
	case f.Less(g):
		return -1
	case g.Less(f):
		return 1
	}
	return 0
}

// Format renders the fact in the paper's RDF-like notation using v's names.
// The wildcard vocab.Any prints as [].
func (f Fact) Format(v *vocab.Vocabulary) string {
	name := func(t vocab.Term) string {
		if t == vocab.Any {
			return "[]"
		}
		return v.Name(t)
	}
	return fmt.Sprintf("%s %s %s", name(f.S), name(f.R), name(f.O))
}

// Leq reports whether f ≤ g under v, i.e. f is a (not necessarily proper)
// generalization of g.
func Leq(v *vocab.Vocabulary, f, g Fact) bool {
	return v.Leq(f.S, g.S) && v.Leq(f.R, g.R) && v.Leq(f.O, g.O)
}

// Set is a fact-set. The exported operations treat it as a set; the
// canonical representation (see Canon) is sorted and duplicate-free.
type Set []Fact

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Canon returns the canonical representation of s: sorted by (S, R, O) with
// duplicates removed. The receiver is not modified.
func (s Set) Canon() Set {
	out := s.Clone()
	slices.SortFunc(out, Compare)
	return slices.Compact(out)
}

// Contains reports whether s contains exactly f.
func (s Set) Contains(f Fact) bool {
	for _, g := range s {
		if g == f {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain the same facts.
func (s Set) Equal(t Set) bool {
	a, b := s.Canon(), t.Canon()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SetLeq reports whether a ≤ b under v: every fact of a has a more specific
// counterpart in b (Definition 2.5).
func SetLeq(v *vocab.Vocabulary, a, b Set) bool {
	for _, f := range a {
		found := false
		for _, g := range b {
			if Leq(v, f, g) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Implies reports whether transaction t (viewed as a fact-set) implies a,
// i.e. a ≤ t.
func Implies(v *vocab.Vocabulary, t, a Set) bool { return SetLeq(v, a, t) }

// Reduce drops from s every fact that is a proper generalization of another
// fact in s (such facts are implied and thus redundant), returning a
// canonical set of the maximally specific facts.
func Reduce(v *vocab.Vocabulary, s Set) Set {
	c := s.Canon()
	var out Set
	for i, f := range c {
		redundant := false
		for j, g := range c {
			if i == j || f == g {
				continue
			}
			if Leq(v, f, g) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, f)
		}
	}
	return out
}

// IsCanon reports whether s is already in canonical form: sorted by
// (S, R, O) without duplicates.
func (s Set) IsCanon() bool {
	for i := 1; i < len(s); i++ {
		if !s[i-1].Less(s[i]) {
			return false
		}
	}
	return true
}

// canonical returns s when it is already canonical, else its Canon.
func (s Set) canonical() Set {
	if s.IsCanon() {
		return s
	}
	return s.Canon()
}

// Key returns a compact byte-string key identifying the canonical form of s,
// suitable for use as a map key.
func (s Set) Key() string { return string(s.AppendKey(nil)) }

// AppendKey appends the bytes of s's Key to dst and returns the extended
// slice. A map lookup through string(dst) does not allocate.
func (s Set) AppendKey(dst []byte) []byte {
	dst = slices.Grow(dst, len(s)*12)
	for _, f := range s.canonical() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.S))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.R))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.O))
	}
	return dst
}

// Hash returns a 64-bit FNV-1a-style hash (one term per step) of s's
// canonical form. Equal sets hash equal, so a table interning sets by
// content hashes first and confirms with an equality test of the
// canonical forms.
func (s Set) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, f := range s.canonical() {
		for _, t := range [3]vocab.Term{f.S, f.R, f.O} {
			h = (h ^ uint64(uint32(t))) * prime
		}
	}
	return h
}

// Format renders s in the paper's notation, facts joined by ". ".
func (s Set) Format(v *vocab.Vocabulary) string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.Format(v)
	}
	return strings.Join(parts, ". ")
}
