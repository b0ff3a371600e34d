// Package assign implements variable assignments with multiplicities and
// their semantic partial order (Section 4.1, Definition 4.1 of the paper),
// together with the lazy generation machinery of Section 5: the expansion of
// the valid-assignment set with its generalizations (Algorithm 1, line 1),
// immediate successor/predecessor moves on the assignment lattice, and
// combination of assignments for multiplicities (Proposition 5.1).
//
// An assignment maps each mining variable (a variable occurring in the
// SATISFYING clause) to an antichain of vocabulary terms; sets with
// comparable values are semantically redundant and are canonicalized away.
// Assignments additionally carry the extra facts contributed by the MORE
// keyword. φ ≤ φ' holds when every value of φ is generalized by some value
// of φ' (and every MORE fact of φ by some MORE fact of φ'); MSPs are the
// maximal valid significant assignments.
package assign

import (
	"slices"
	"strings"

	"oassis/internal/fact"
	"oassis/internal/vocab"
)

// Assignment maps each variable of a Space (by index) to a sorted antichain
// of terms, plus the canonical set of MORE facts. Assignments are immutable
// once created; all mutating operations return new values.
type Assignment struct {
	Vals [][]vocab.Term
	More fact.Set

	// key caches the canonical Key. It is set (sealed) by every Space
	// constructor and lattice move once the assignment is in final form;
	// Clone intentionally drops it, because clones exist to be mutated.
	// An empty key means "not sealed" — Key computes on demand then.
	key string
}

// NewAssignment builds a canonical assignment over sp from per-variable
// value sets and MORE facts: value sets are reduced to antichains and
// sorted, MORE facts reduced to their most specific representatives.
func (sp *Space) NewAssignment(vals [][]vocab.Term, more fact.Set) Assignment {
	out := Assignment{Vals: make([][]vocab.Term, len(sp.Vars))}
	for i := range sp.Vars {
		if i < len(vals) {
			out.Vals[i] = sp.Voc.AppendReduceAntichain(nil, vals[i])
		}
	}
	if len(more) > 0 {
		out.More = fact.Reduce(sp.Voc, more)
	}
	return out.sealed()
}

// Singleton builds the multiplicity-1 assignment with the given value per
// variable (vocab.None entries become empty sets).
func (sp *Space) Singleton(vals ...vocab.Term) Assignment {
	out := Assignment{Vals: make([][]vocab.Term, len(sp.Vars))}
	for i := range sp.Vars {
		if i < len(vals) && vals[i] != vocab.None {
			out.Vals[i] = []vocab.Term{vals[i]}
		}
	}
	return out.sealed()
}

// Clone deep-copies a. The clone's key cache is dropped: clones are made to
// be mutated by the lattice moves, which re-seal before publishing.
func (a Assignment) Clone() Assignment {
	out := Assignment{Vals: make([][]vocab.Term, len(a.Vals))}
	for i, vs := range a.Vals {
		out.Vals[i] = append([]vocab.Term(nil), vs...)
	}
	out.More = a.More.Clone()
	return out
}

// sealed returns a with its canonical key computed and cached, making every
// subsequent Key call a field read. Must only be applied to assignments in
// final canonical form.
func (a Assignment) sealed() Assignment {
	a.key = a.computeKey()
	return a
}

// Key returns a canonical map key for a. Sealed assignments (everything a
// Space constructor or lattice move returns) answer from the cache;
// hand-built literals fall back to computing it.
func (a Assignment) Key() string {
	if a.key != "" {
		return a.key
	}
	return a.computeKey()
}

// computeKey serializes the canonical form. It relies on the invariant that
// value sets and the MORE fact-set are kept in canonical (sorted, reduced)
// form by every constructor and lattice move.
func (a Assignment) computeKey() string {
	n := 1
	for _, vs := range a.Vals {
		n += len(vs)*4 + 1
	}
	n += len(a.More) * 12
	return string(a.appendKey(make([]byte, 0, n)))
}

// appendKey appends the canonical key bytes of a to buf and returns the
// extended buffer. Successor generation serializes thousands of candidates
// per expansion; appending into a reusable scratch buffer lets rejected
// candidates cost zero heap allocations.
func (a Assignment) appendKey(buf []byte) []byte {
	put := func(t vocab.Term) {
		buf = append(buf, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	for _, vs := range a.Vals {
		for _, v := range vs {
			put(v)
		}
		buf = append(buf, ';')
	}
	buf = append(buf, '|')
	for _, f := range a.More {
		put(f.S)
		put(f.R)
		put(f.O)
	}
	return buf
}

// Equal reports whether a and b are the same canonical assignment.
func (a Assignment) Equal(b Assignment) bool { return a.Key() == b.Key() }

// Leq reports whether a ≤ b under Definition 4.1 extended with MORE facts:
// for every variable x and value v ∈ a(x) there is v' ∈ b(x) with v ≤ v',
// and every MORE fact of a is generalized by some MORE fact of b.
func (sp *Space) Leq(a, b Assignment) bool {
	for i := range sp.Vars {
		for _, v := range a.Vals[i] {
			ok := false
			for _, w := range b.Vals[i] {
				if sp.Voc.Leq(v, w) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	return fact.SetLeq(sp.Voc, a.More, b.More)
}

// Lt reports a < b (strict).
func (sp *Space) Lt(a, b Assignment) bool { return sp.Leq(a, b) && !a.Equal(b) }

// Size returns the total number of values and MORE facts, a rough measure of
// specificity used for ordering heuristics.
func (a Assignment) Size() int {
	n := len(a.More)
	for _, vs := range a.Vals {
		n += len(vs)
	}
	return n
}

// Instantiate applies a to the SATISFYING meta-fact-set (Section 3): each
// meta-fact is instantiated once per combination of the values of its
// variables; meta-facts mentioning a variable with an empty value set are
// dropped (multiplicity 0 deletes them). MORE facts are appended. The result
// is the canonical fact-set whose support the crowd is asked about.
func (sp *Space) Instantiate(a Assignment) fact.Set {
	var out fact.Set
	for _, m := range sp.Sat {
		out = appendMetaFacts(out, sp, m, a)
	}
	out = append(out, a.More...) // out is fresh: canonicalize it in place
	slices.SortFunc(out, fact.Compare)
	return slices.Compact(out)
}

func appendMetaFacts(out fact.Set, sp *Space, m Meta, a Assignment) fact.Set {
	choices := func(c Comp) []vocab.Term {
		if c.Var >= 0 {
			return a.Vals[c.Var]
		}
		return []vocab.Term{c.Term}
	}
	ss, rs, os := choices(m.S), choices(m.R), choices(m.O)
	if len(ss) == 0 || len(rs) == 0 || len(os) == 0 {
		return out // multiplicity 0: drop the meta-fact
	}
	for _, s := range ss {
		for _, r := range rs {
			for _, o := range os {
				out = append(out, fact.Fact{S: s, R: r, O: o})
			}
		}
	}
	return out
}

// Format renders a for diagnostics: variable name ↦ {values}; MORE facts
// appended in braces.
func (sp *Space) Format(a Assignment) string {
	var sb strings.Builder
	for i, vs := range a.Vals {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(sp.Vars[i].Name)
		sb.WriteString("↦{")
		for j, v := range vs {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(sp.Voc.Name(v))
		}
		sb.WriteString("}")
	}
	if len(a.More) > 0 {
		sb.WriteString(" +more{")
		sb.WriteString(a.More.Format(sp.Voc))
		sb.WriteString("}")
	}
	return sb.String()
}
