package assign

import (
	"encoding/binary"
	"sort"

	"oassis/internal/vocab"
)

// baseKey renders a multiplicity-1 row as its base key: each term's four
// bytes, little-endian. The string-keyed set of these keys is the oracle
// of the valid-row table and of the rows' canonical order.
func baseKey(vals []vocab.Term) string {
	b := make([]byte, 0, 4*len(vals))
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

// ValidBaseKeySet is the string-keyed set of the valid base rows' keys
// that the valid-row table replaced, kept as its oracle: the returned
// function reports whether a tuple's base key is in the set.
func (sp *Space) ValidBaseKeySet() func(vals []vocab.Term) bool {
	set := make(map[string]struct{}, len(sp.ValidBase))
	for _, row := range sp.ValidBase {
		set[baseKey(row)] = struct{}{}
	}
	return func(vals []vocab.Term) bool {
		_, ok := set[baseKey(vals)]
		return ok
	}
}

// MinimalAddable exposes the successor generator's minimal-addable walk to
// the external tests, which build their spaces with internal/synth.
func (sp *Space) MinimalAddable(i int, vals []vocab.Term) []vocab.Term {
	return sp.minimalAddable(i, vals)
}

// MinimalAddableScan is the full-domain scan the walk replaced, kept as
// its oracle: every domain term is tested for addability, and an addable
// term is kept when none of its immediate parents is addable. It returns a
// fresh ascending slice.
func (sp *Space) MinimalAddableScan(i int, vals []vocab.Term) []vocab.Term {
	addable := func(t vocab.Term) bool {
		return sp.tab.inDomain(i, t) && compatible(sp.Voc, vals, -1, t)
	}
	var out []vocab.Term
	for _, t := range sp.tab.domains[i] { // sorted ascending
		if !addable(t) {
			continue
		}
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
	}
	return out
}

// CoveredByValidBox exposes the box-cover test, unmemoized, to the
// external tests.
func (sp *Space) CoveredByValidBox(a Assignment) bool { return sp.coveredByValidBox(a) }

// InAOracle is InA with the box-cover test replaced by its oracle and no
// memo.
func (sp *Space) InAOracle(a Assignment) bool {
	return sp.structuralInA(a) && sp.CoveredByValidBoxOracle(a)
}

// IsValidOracle is IsValid with the box walk replaced by its oracle.
func (sp *Space) IsValidOracle(a Assignment) bool {
	for i, vs := range sp.Vars {
		if !vs.Mult.Allows(len(a.Vals[i])) {
			return false
		}
	}
	if len(a.More) > 0 && !sp.More {
		return false
	}
	return sp.boxContainedOracle(a.Vals)
}

// CoveredByValidBoxOracle is the box-cover test as it was before it moved
// into reused scratch, kept as its oracle: per-call cover and choice
// tables, a recursive closure, and a fresh canonical box per tried choice.
// The box's rows are reduced by reduceAntichainOracle rather than the
// shared vocab reduction, so a fault there cannot hide on both sides.
func (sp *Space) CoveredByValidBoxOracle(a Assignment) bool {
	covers := make([][][]vocab.Term, len(sp.Vars))
	for i := range sp.Vars {
		covers[i] = make([][]vocab.Term, len(a.Vals[i]))
		for j, v := range a.Vals[i] {
			cs := sp.tab.coversOf(i, v)
			if len(cs) == 0 {
				return false
			}
			covers[i][j] = cs
		}
	}
	chosen := make([][]vocab.Term, len(sp.Vars))
	var pick func(i, j int) bool
	pick = func(i, j int) bool {
		if i == len(sp.Vars) {
			box := make([][]vocab.Term, len(chosen))
			for k, vs := range chosen {
				box[k] = reduceAntichainOracle(sp.Voc, vs)
			}
			return sp.boxContainedOracle(box)
		}
		if j == len(covers[i]) {
			return pick(i+1, 0)
		}
		for _, c := range covers[i][j] {
			chosen[i] = append(chosen[i], c)
			if pick(i, j+1) {
				chosen[i] = chosen[i][:len(chosen[i])-1]
				return true
			}
			chosen[i] = chosen[i][:len(chosen[i])-1]
		}
		return false
	}
	return pick(0, 0)
}

// boxContainedOracle is the closure-driven box walk: every combination of
// one value per nonempty row must match some valid base row, with empty
// rows as projection wildcards.
func (sp *Space) boxContainedOracle(rows [][]vocab.Term) bool {
	tuple := make([]vocab.Term, len(sp.Vars))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(sp.Vars) {
			return sp.matchesSomeBase(tuple)
		}
		if len(rows[i]) == 0 {
			tuple[i] = vocab.None
			return rec(i + 1)
		}
		for _, v := range rows[i] {
			tuple[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// reduceAntichainOracle is the allocating antichain reduction the append
// form replaced: the maximally specific values of ts, sorted and
// deduplicated.
func reduceAntichainOracle(v *vocab.Vocabulary, ts []vocab.Term) []vocab.Term {
	var out []vocab.Term
	for i, a := range ts {
		redundant := false
		for j, b := range ts {
			if i != j && (v.Lt(a, b) || (a == b && j < i)) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TablesView is the per-variable content of a Tables the oracle test
// compares: cover lists indexed by term, domains, most general domain
// values and distinct valid values.
type TablesView struct {
	Covers                    [][][]vocab.Term
	Domains, MinVals, ValidAt [][]vocab.Term
}

// View exposes the space's lattice tables to the external tests.
func (sp *Space) View() TablesView {
	t := sp.tab
	return TablesView{Covers: t.covers, Domains: t.domains, MinVals: t.minVals, ValidAt: t.validAt}
}

// LeqSweepView computes the space's tables from Leq tests alone, kept as
// the oracle of NewTables. The cover lists are the O(D·V) sweep over
// (domain term, valid value) pairs that NewTables ran before it read them
// off the closure rows. The domain is every anchor-respecting term at or
// above some valid value, and a domain value is most general when no
// other domain value generalizes it.
func (sp *Space) LeqSweepView() TablesView {
	voc, n := sp.Voc, sp.Voc.Len()
	out := TablesView{
		Covers:  make([][][]vocab.Term, len(sp.Vars)),
		Domains: make([][]vocab.Term, len(sp.Vars)),
		MinVals: make([][]vocab.Term, len(sp.Vars)),
		ValidAt: make([][]vocab.Term, len(sp.Vars)),
	}
	for i, vs := range sp.Vars {
		seen := map[vocab.Term]bool{}
		for _, row := range sp.ValidBase {
			if v := row[i]; v >= 0 && !seen[v] {
				seen[v] = true
				out.ValidAt[i] = append(out.ValidAt[i], v)
			}
		}
		sort.Slice(out.ValidAt[i], func(a, b int) bool { return out.ValidAt[i][a] < out.ValidAt[i][b] })
		for v := vocab.Term(0); int(v) < n; v++ {
			if !respectsAnchors(voc, vs, v) {
				continue
			}
			for _, u := range out.ValidAt[i] {
				if voc.Leq(v, u) {
					out.Domains[i] = append(out.Domains[i], v)
					break
				}
			}
		}
		for _, v := range out.Domains[i] {
			minimal := true
			for _, w := range out.Domains[i] {
				if voc.Lt(w, v) {
					minimal = false
					break
				}
			}
			if minimal {
				out.MinVals[i] = append(out.MinVals[i], v)
			}
		}
		out.Covers[i] = make([][]vocab.Term, n)
		for _, v := range out.Domains[i] {
			var cs []vocab.Term
			for _, u := range out.ValidAt[i] {
				if voc.Leq(v, u) {
					cs = append(cs, u)
				}
			}
			out.Covers[i][v] = cs
		}
	}
	return out
}

// ValidBaseKeySort is NewSpace's projection of bindings onto the mining
// variables as it was before the rows were sorted without strings, kept as
// the oracle of the canonical ValidBase order: every row rendered to its
// baseKey in a map, the keys sorted with sort.Strings. where reports a
// non-empty WHERE clause.
func ValidBaseKeySort(v *vocab.Vocabulary, vars []VarSpec, bindings []map[string]vocab.Term,
	where bool) [][]vocab.Term {

	var unbound []int
	boundIn := map[string]bool{}
	for _, b := range bindings {
		for name := range b {
			boundIn[name] = true
		}
	}
	for i, vs := range vars {
		if !boundIn[vs.Name] {
			unbound = append(unbound, i)
		}
	}
	rows := map[string][]vocab.Term{}
	if len(bindings) == 0 && !where && len(vars) > 0 {
		bindings = []map[string]vocab.Term{{}}
	}
	var expand func(tuple []vocab.Term, k int)
	expand = func(tuple []vocab.Term, k int) {
		if k == len(unbound) {
			cp := append([]vocab.Term(nil), tuple...)
			rows[baseKey(cp)] = cp
			return
		}
		i := unbound[k]
		for t := 0; t < v.Len(); t++ {
			if v.KindOf(vocab.Term(t)) != vars[i].Kind {
				continue
			}
			tuple[i] = vocab.Term(t)
			expand(tuple, k+1)
		}
		tuple[i] = vocab.None
	}
	for _, b := range bindings {
		tuple := make([]vocab.Term, len(vars))
		for i, vs := range vars {
			if t, ok := b[vs.Name]; ok {
				tuple[i] = t
			} else {
				tuple[i] = vocab.None
			}
		}
		expand(tuple, 0)
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]vocab.Term
	for _, k := range keys {
		out = append(out, rows[k])
	}
	return out
}
