package assign

import (
	"math/bits"
	"slices"
	"sync"

	"oassis/internal/vocab"
)

// Tables is the frozen, read-only lattice context of one compiled query:
// for every mining variable, the exploration domain (the anchor-respecting
// upward closure of the variable's valid values) as a dense-term bitset
// plus a sorted slice, the domain's most general elements (the lattice
// floor), the sorted distinct valid values, and — for every domain term —
// the precomputed list of valid values it generalizes (the cover lists the
// 𝒜-membership test searches); and, for the whole query, a hash table of
// the valid base rows (IsValidBase) and the lattice's Minimal seeds.
//
// Tables hold everything plan-invariant a Space reads, so a session's
// Space holds only its own mutable state. One Tables instance is shared by
// every Space built from the same plan and probed lock-free by concurrent
// sessions: everything is immutable after NewTables returns, except the
// seeds, which the first Space to ask computes once (under a sync.Once)
// and every later one only reads.
type Tables struct {
	terms int // vocabulary size the bitsets are dimensioned for
	words int // bitset row width in uint64 words

	domainBits [][]uint64     // per variable: bit t set iff t in domain
	anchorBits [][]uint64     // per variable: bit t set iff t respects the anchors
	domains    [][]vocab.Term // per variable: the domain, sorted ascending
	minVals    [][]vocab.Term // per variable: most general domain values
	validAt    [][]vocab.Term // per variable: distinct valid values, sorted
	// covers[i][t] lists the valid values of variable i that specialize
	// term t (v with t ≤ v), nil outside the domain. Indexed by term id.
	covers [][][]vocab.Term

	// valid is an open-addressed table of the valid base rows: each slot
	// holds 1 + the row's index in rows, 0 when empty, and a row probes
	// from the slot its hash's top bits pick. The rows are the caller's,
	// shared, so the table costs four bytes a slot and no key strings.
	rows      [][]vocab.Term
	valid     []uint32
	validBits uint8 // log2 of len(valid)

	seedsOnce sync.Once
	seeds     []Assignment // Space.Minimal's result, read-only once computed
}

// NewTables precomputes the lattice tables for the given variable specs and
// valid base rows over a frozen vocabulary. It is called once per compiled
// plan (or once per ad-hoc Space) and its result may be shared freely by
// every Space over the same variables and valid base rows.
func NewTables(voc *vocab.Vocabulary, vars []VarSpec, validBase [][]vocab.Term) *Tables {
	n := voc.Len()
	t := &Tables{
		terms:      n,
		words:      (n + 63) / 64,
		domainBits: make([][]uint64, len(vars)),
		anchorBits: make([][]uint64, len(vars)),
		domains:    make([][]vocab.Term, len(vars)),
		minVals:    make([][]vocab.Term, len(vars)),
		validAt:    make([][]vocab.Term, len(vars)),
		covers:     make([][][]vocab.Term, len(vars)),
	}
	t.indexRows(validBase)
	for i := range vars {
		t.build(voc, vars, i, validBase)
	}
	return t
}

// build fills variable i's tables.
func (t *Tables) build(voc *vocab.Vocabulary, vars []VarSpec, i int, validBase [][]vocab.Term) {
	// Distinct valid values, via a scratch bitset so the list comes out
	// sorted by term id.
	validBits := make([]uint64, t.words)
	for _, row := range validBase {
		if v := row[i]; v >= 0 {
			validBits[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	t.validAt[i] = termsOfBits(validBits)

	// Anchor-respect bitmap: one Leq sweep at build time turns the per-value
	// anchor test on the hot path into a single bit probe.
	anchorOK := make([]uint64, t.words)
	for v := vocab.Term(0); int(v) < t.terms; v++ {
		if respectsAnchors(voc, vars[i], v) {
			anchorOK[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	t.anchorBits[i] = anchorOK

	// Exploration domain: anchor-respecting upward closure of the valid
	// values (iterative DFS over the generalization edges).
	bits := make([]uint64, t.words)
	respects := func(v vocab.Term) bool { return anchorOK[v>>6]&(1<<(uint(v)&63)) != 0 }
	var stack []vocab.Term
	push := func(v vocab.Term) {
		if bits[v>>6]&(1<<(uint(v)&63)) != 0 || !respects(v) {
			return
		}
		bits[v>>6] |= 1 << (uint(v) & 63)
		stack = append(stack, v)
	}
	for _, v := range t.validAt[i] {
		push(v)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range voc.Parents(v) {
			push(p)
		}
	}
	t.domainBits[i] = bits
	t.domains[i] = termsOfBits(bits)

	// Most general domain values: no immediate parent inside the domain.
	for _, v := range t.domains[i] {
		minimal := true
		for _, p := range voc.Parents(v) {
			if t.inDomain(i, p) {
				minimal = false
				break
			}
		}
		if minimal {
			t.minVals[i] = append(t.minVals[i], v)
		}
	}

	// Cover lists, read off the closure: valid value u belongs to covers[v]
	// iff v is a domain term at or above u, so u's closure row names every
	// list u joins, and the cost follows the entries emitted rather than
	// |domain|·|valid|. Every domain value is, by construction, a (possibly
	// trivial) generalization of at least one valid value. Walking u in
	// ascending order leaves every list sorted; one count pass sizes a
	// single backing array the fill pass cuts the lists from.
	counts := make([]int32, t.terms)
	total := 0
	var anc []vocab.Term
	for _, u := range t.validAt[i] {
		anc = voc.AppendAncestorsOrSelf(anc[:0], u)
		for _, v := range anc {
			if t.inDomain(i, v) {
				counts[v]++
				total++
			}
		}
	}
	backing := make([]vocab.Term, total)
	covers := make([][]vocab.Term, t.terms)
	for _, v := range t.domains[i] {
		if n := int(counts[v]); n > 0 {
			covers[v] = backing[:0:n]
			backing = backing[n:]
		}
	}
	for _, u := range t.validAt[i] {
		anc = voc.AppendAncestorsOrSelf(anc[:0], u)
		for _, v := range anc {
			if t.inDomain(i, v) {
				covers[v] = append(covers[v], u)
			}
		}
	}
	t.covers[i] = covers
}

// indexRows builds the valid-row table over rows at a load of at most one
// half; a repeated row is stored once.
func (t *Tables) indexRows(rows [][]vocab.Term) {
	if len(rows) == 0 {
		return
	}
	t.rows = rows
	t.validBits = uint8(bits.Len(uint(2*len(rows) - 1)))
	t.valid = make([]uint32, 1<<t.validBits)
	for r, row := range rows {
		if k, found := t.probe(row); !found {
			t.valid[k] = uint32(r) + 1
		}
	}
}

// probe looks row up in the valid-row table: it returns the slot that
// holds it, or the empty slot where it would go, and whether it was found.
// The table must not be empty.
func (t *Tables) probe(row []vocab.Term) (int, bool) {
	mask := len(t.valid) - 1
	for k := int(rowHash(row) >> (64 - t.validBits)); ; k = (k + 1) & mask {
		r := t.valid[k]
		if r == 0 {
			return k, false
		}
		if slices.Equal(t.rows[r-1], row) {
			return k, true
		}
	}
}

// isValidBase reports whether row is one of the valid base rows.
func (t *Tables) isValidBase(row []vocab.Term) bool {
	if len(t.valid) == 0 {
		return false
	}
	_, found := t.probe(row)
	return found
}

// rowHash hashes a row's terms, each folded in and multiplied by the
// 64-bit golden ratio, so that the top bits depend on every term.
func rowHash(row []vocab.Term) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h ^= h >> 32
		h = (h + uint64(uint32(v))) * 0x9E3779B97F4A7C15
	}
	return h
}

// inDomain reports whether term v belongs to variable i's exploration
// domain — a single word-indexed bit test.
func (t *Tables) inDomain(i int, v vocab.Term) bool {
	if v < 0 || int(v) >= t.terms {
		return false
	}
	return t.domainBits[i][v>>6]&(1<<(uint(v)&63)) != 0
}

// anchorOK reports whether term v respects variable i's anchors — the
// precomputed equivalent of respectsAnchors.
func (t *Tables) anchorOK(i int, v vocab.Term) bool {
	if v < 0 || int(v) >= t.terms {
		return false
	}
	return t.anchorBits[i][v>>6]&(1<<(uint(v)&63)) != 0
}

// coversOf returns the valid values of variable i at or below v (the
// candidate covers of v in a valid assignment). The returned slice is
// shared and must not be modified.
func (t *Tables) coversOf(i int, v vocab.Term) []vocab.Term {
	if v < 0 || int(v) >= t.terms {
		return nil
	}
	return t.covers[i][v]
}

// termsOfBits expands a bitset into the ascending term slice it denotes.
func termsOfBits(set []uint64) []vocab.Term {
	var out []vocab.Term
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, vocab.Term(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// respectsAnchors reports whether value v may appear at a variable with
// spec vs: right kind, not the wildcard, and at or below every anchor.
func respectsAnchors(voc *vocab.Vocabulary, vs VarSpec, v vocab.Term) bool {
	if v == vocab.Any {
		return false
	}
	if voc.KindOf(v) != vs.Kind {
		return false
	}
	for _, a := range vs.Anchors {
		if !voc.Leq(a, v) {
			return false
		}
	}
	return true
}
