package assign

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"oassis/internal/fact"
	"oassis/internal/oassisql"
	"oassis/internal/vocab"
)

// VarSpec describes one mining variable: a variable occurring in the
// SATISFYING clause of the query.
type VarSpec struct {
	Name    string
	Mult    oassisql.Mult
	Kind    vocab.Kind
	Anchors []vocab.Term // generalization caps; empty means vocabulary roots
}

// Comp is one component of a meta-fact: either a variable reference
// (Var ≥ 0, an index into Space.Vars) or a fixed term (Var < 0), where the
// term may be vocab.Any for the [] wildcard.
type Comp struct {
	Var  int
	Term vocab.Term
}

// Meta is a resolved SATISFYING meta-fact.
type Meta struct {
	S, R, O Comp
}

// Space is the per-session view of the mining lattice: the mining
// variables, the SATISFYING meta-fact-set, the valid base assignments
// computed from the WHERE clause, and the candidate pool for MORE facts.
// Everything plan-invariant — the variables, meta-facts and ValidBase
// rows, and the frozen Tables (exploration domains, cover lists, the
// valid-row key set, the Minimal seeds) — is shared read-only by every
// Space of the same plan; everything mutable on the Space — the node
// table, the successor arenas and scratch buffers — is private to the
// single goroutine driving the session.
//
// The node table gives every lattice node one identity: its canonical key
// maps to a dense id, handed out in first-sight order, and id-indexed
// slices hold the node and its memoized box-cover test. The engine and its
// classifier index all their per-node state by these ids.
type Space struct {
	Voc  *vocab.Vocabulary
	Vars []VarSpec
	Sat  []Meta
	More bool
	// MoreCandidates seeds the MORE successor moves; in the live system
	// these arrive from crowd answers, in simulations they are configured.
	MoreCandidates fact.Set

	// ValidBase holds the multiplicity-1 valid assignments (one value per
	// variable), deduplicated, from WHERE evaluation. It is shared with
	// the plan and read-only.
	ValidBase [][]vocab.Term

	tab *Tables // frozen lattice tables, shared read-only

	ids   map[string]uint32 // the node table: canonical key -> dense id
	nodes []Assignment      // by id: the node, sealed with the interned key
	cover []coverState      // by id: the memoized box-cover test

	// Per-session scratch and arenas for successor generation (see
	// arena.go for the lifetime rules). Never touched on the shared
	// read path.
	arena    termArena
	hdrs     hdrArena
	keyBuf   []byte         // candidate-key scratch
	baseBuf  []byte         // base-tuple-key scratch
	hdrBuf   [][]vocab.Term // candidate header scratch
	valBuf   []vocab.Term   // candidate value-row scratch
	idBuf    []uint32       // Successors/Predecessors id scratch
	tupleBuf []vocab.Term   // box walk tuple scratch
	multi    *multiScratch  // multi-valued scratch, allocated on first need
}

// multiScratch is the scratch only multi-valued variables need: the
// minimal-addable walk's and the box-cover test's. A Space allocates it on
// first need, so sessions whose nodes are all single-valued never pay for it.
type multiScratch struct {
	addBuf   []vocab.Term   // minimalAddable output
	walkBuf  []vocab.Term   // minimalAddable walk stack
	walkSeen []uint64       // minimalAddable visited-term bitset
	rows     [][]vocab.Term // box-cover test: the box's multi-valued rows
	picks    []vocab.Term   // box-cover test: picked covers and their antichains
}

// scratch returns the multi-valued scratch, allocating it on first need.
func (sp *Space) scratch() *multiScratch {
	if sp.multi == nil {
		sp.multi = &multiScratch{rows: make([][]vocab.Term, len(sp.Vars))}
	}
	return sp.multi
}

// coverState is a node's memoized box-cover test: whether some valid
// assignment lies at or above it. A node is tested on first need — by InA,
// or by the emit pipeline before a lattice move keeps it.
type coverState uint8

const (
	coverUnknown coverState = iota
	coverYes
	coverNo
)

// appendBaseKey appends the key of a multiplicity-1 tuple to buf: each
// term's four bytes, little-endian.
func appendBaseKey(buf []byte, vals []vocab.Term) []byte {
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	return buf
}

// baseKey builds the key of a multiplicity-1 tuple.
func baseKey(vals []vocab.Term) string {
	return string(appendBaseKey(make([]byte, 0, 4*len(vals)), vals))
}

// NewSpace builds a Space for query q over vocabulary v. bindings are the
// WHERE-clause results (variable name → term); anchors are the
// generalization caps per variable (see sparql.Anchors). Variables that
// occur in SATISFYING but not in any binding (the pure-mining form with an
// empty WHERE clause) range over the whole vocabulary of their kind.
// ValidBase holds the projected rows deduplicated and in canonical order,
// ascending by their little-endian baseKeys compared bytewise; the plan
// IR, and with it every plan fingerprint, lists the rows in that order.
func NewSpace(v *vocab.Vocabulary, q *oassisql.Query, bindings []map[string]vocab.Term,
	anchors map[string][]vocab.Term) (*Space, error) {

	sp := &Space{Voc: v, More: q.More}

	// Collect mining variables in SATISFYING-occurrence order, with their
	// multiplicities and kinds.
	varIdx := map[string]int{}
	addVar := func(a oassisql.Atom, m oassisql.Mult, kind vocab.Kind) (int, error) {
		if a.Kind != oassisql.AtomVar {
			return -1, nil
		}
		if i, ok := varIdx[a.Name]; ok {
			if sp.Vars[i].Kind != kind {
				return -1, fmt.Errorf("assign: variable $%s used as both element and relation", a.Name)
			}
			if m != oassisql.MultOne && sp.Vars[i].Mult == oassisql.MultOne {
				sp.Vars[i].Mult = m
			}
			return i, nil
		}
		i := len(sp.Vars)
		varIdx[a.Name] = i
		sp.Vars = append(sp.Vars, VarSpec{Name: a.Name, Mult: m, Kind: kind, Anchors: anchors[a.Name]})
		return i, nil
	}

	conv := func(a oassisql.Atom, m oassisql.Mult, kind vocab.Kind) (Comp, error) {
		switch a.Kind {
		case oassisql.AtomVar:
			i, err := addVar(a, m, kind)
			if err != nil {
				return Comp{}, err
			}
			return Comp{Var: i}, nil
		case oassisql.AtomAny:
			return Comp{Var: -1, Term: vocab.Any}, nil
		case oassisql.AtomTerm:
			t, ok := v.Lookup(a.Name)
			if !ok {
				return Comp{}, fmt.Errorf("assign: unknown term %q in SATISFYING", a.Name)
			}
			if v.KindOf(t) != kind {
				return Comp{}, fmt.Errorf("assign: %q used with wrong kind in SATISFYING", a.Name)
			}
			return Comp{Var: -1, Term: t}, nil
		default:
			return Comp{}, fmt.Errorf("assign: literal in SATISFYING")
		}
	}

	for _, p := range q.Satisfying {
		var m Meta
		var err error
		if m.S, err = conv(p.S, p.SMult, vocab.Element); err != nil {
			return nil, err
		}
		if m.R, err = conv(p.R, oassisql.MultOne, vocab.Relation); err != nil {
			return nil, err
		}
		if m.O, err = conv(p.O, p.OMult, vocab.Element); err != nil {
			return nil, err
		}
		sp.Sat = append(sp.Sat, m)
	}

	// Build the valid base assignments: project bindings onto the mining
	// variables. Variables no binding mentions range over their whole kind.
	var unbound []int
	for i, vs := range sp.Vars {
		if !slices.ContainsFunc(bindings, func(b map[string]vocab.Term) bool {
			_, ok := b[vs.Name]
			return ok
		}) {
			unbound = append(unbound, i)
		}
	}
	// The pure-mining form (empty WHERE clause) has a single empty binding;
	// an unsatisfiable non-empty WHERE clause yields no bindings and hence
	// an empty valid set.
	if len(bindings) == 0 && len(q.Where) == 0 && len(sp.Vars) > 0 {
		bindings = []map[string]vocab.Term{{}}
	}
	sp.ValidBase = projectRows(v, sp.Vars, unbound, bindings)
	sp.tab = NewTables(v, sp.Vars, sp.ValidBase)
	sp.initSession()
	return sp, nil
}

// FromShared builds a session's Space from previously compiled parts
// together with their precomputed read-only lattice tables (nil computes
// them here). Nothing plan-invariant is copied: vars, sat, the validBase
// rows and the tables — with the valid-row key set and the Minimal seeds
// they own — are shared with every sibling Space, and ValidBase is a
// capacity-capped window on validBase, so an append copies the rows
// instead of writing into the caller's. Only the node table, scratch
// buffers and arenas are built fresh and private to the session. tab must
// have been built for these same parts.
func FromShared(v *vocab.Vocabulary, vars []VarSpec, sat []Meta, more bool,
	validBase [][]vocab.Term, tab *Tables) *Space {

	sp := &Space{Voc: v, Vars: vars, Sat: sat, More: more,
		ValidBase: validBase[:len(validBase):len(validBase)]}
	if tab == nil {
		tab = NewTables(v, sp.Vars, sp.ValidBase)
	}
	sp.tab = tab
	sp.initSession()
	return sp
}

// Tables returns the space's frozen lattice tables, for sharing with
// sibling sessions of the same plan.
func (sp *Space) Tables() *Tables { return sp.tab }

// initSession allocates the per-session mutable state.
func (sp *Space) initSession() {
	sp.ids = make(map[string]uint32)
	sp.tupleBuf = make([]vocab.Term, len(sp.Vars))
	sp.hdrBuf = make([][]vocab.Term, 0, len(sp.Vars))
}

// projectRows projects every binding onto the mining variables, each
// unbound variable ranging over every term of its kind, and returns the
// distinct rows in canonical order: ascending by baseKey, compared
// bytewise. The rows are cut from one backing array; with no variables,
// any binding projects to the one empty row.
func projectRows(v *vocab.Vocabulary, vars []VarSpec, unbound []int,
	bindings []map[string]vocab.Term) [][]vocab.Term {

	n := len(vars)
	if n == 0 {
		if len(bindings) == 0 {
			return nil
		}
		return [][]vocab.Term{nil}
	}
	var flat []vocab.Term
	if len(unbound) == 0 {
		flat = make([]vocab.Term, 0, n*len(bindings))
	}
	tuple := make([]vocab.Term, n)
	for _, b := range bindings {
		for i, vs := range vars {
			t, ok := b[vs.Name]
			if !ok {
				t = vocab.None // filled by expandUnbound
			}
			tuple[i] = t
		}
		flat = expandUnbound(v, vars, flat, tuple, unbound)
	}
	if len(flat) == 0 {
		return nil
	}
	rows := make([][]vocab.Term, len(flat)/n)
	for i := range rows {
		rows[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	slices.SortFunc(rows, compareBaseKeys)
	return slices.CompactFunc(rows, slices.Equal[[]vocab.Term])
}

// compareBaseKeys orders multiplicity-1 rows as their baseKeys compare
// bytewise. appendBaseKey writes each term little-endian, so the rows
// compare term by term on the byte-reversed ids: by id alone, 256 would
// sort after 1, but its key (00 01 00 00) sorts before 1's (01 00 00 00).
func compareBaseKeys(a, b []vocab.Term) int {
	for i, t := range a {
		if t != b[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(t)), bits.ReverseBytes32(uint32(b[i])))
		}
	}
	return 0
}

// expandUnbound appends to rows every completion of tuple that gives each
// variable in unbound a term of its kind, in term order.
func expandUnbound(v *vocab.Vocabulary, vars []VarSpec, rows, tuple []vocab.Term, unbound []int) []vocab.Term {
	if len(unbound) == 0 {
		return append(rows, tuple...)
	}
	i := unbound[0]
	for t := 0; t < v.Len(); t++ {
		if v.KindOf(vocab.Term(t)) != vars[i].Kind {
			continue
		}
		tuple[i] = vocab.Term(t)
		rows = expandUnbound(v, vars, rows, tuple, unbound[1:])
	}
	tuple[i] = vocab.None
	return rows
}

// IsValidBase reports whether the multiplicity-1 tuple is a valid base
// assignment: a probe of the Tables' shared valid-row key set. The probe
// builds the tuple key in a scratch buffer; the compiler's
// map-access-by-converted-bytes fast path keeps it allocation-free.
func (sp *Space) IsValidBase(vals []vocab.Term) bool {
	sp.baseBuf = appendBaseKey(sp.baseBuf[:0], vals)
	_, ok := sp.tab.valid[string(sp.baseBuf)]
	return ok
}

// IsValid reports whether a is a valid assignment w.r.t. the query
// (Definition: every combination of one value per variable is a valid base
// assignment — Proposition 5.1 closure — and the multiplicity bounds hold).
// Variables with empty value sets are handled by projection: every
// combination of the nonempty variables must extend to some valid base row.
// MORE facts never affect validity.
func (sp *Space) IsValid(a Assignment) bool {
	for i, vs := range sp.Vars {
		if !vs.Mult.Allows(len(a.Vals[i])) {
			return false
		}
	}
	if len(a.More) > 0 && !sp.More {
		return false
	}
	for i := range sp.tupleBuf {
		sp.tupleBuf[i] = vocab.None // empty value sets: projection semantics
	}
	return sp.walkBox(a.Vals, 0)
}

// InA reports whether a belongs to the explored set 𝒜 (Algorithm 1,
// line 1): a is a (not necessarily proper) generalization of some valid
// assignment, subject to the anchor caps and the multiplicity upper bounds.
func (sp *Space) InA(a Assignment) bool {
	return sp.structuralInA(a) && sp.covered(sp.ID(a))
}

// ID returns the dense id of a, interning it on first sight. Nodes the
// lattice moves emit are interned as they are generated; ID is for nodes
// built elsewhere — the Minimal seeds, hand-built assignments, nodes of
// another Space.
func (sp *Space) ID(a Assignment) uint32 {
	k := a.Key()
	if id, ok := sp.ids[k]; ok {
		return id
	}
	a.key = k
	return sp.intern(a)
}

// Node returns the node with the given id.
func (sp *Space) Node(id uint32) Assignment { return sp.nodes[id] }

// intern adds the sealed, not yet interned node a to the node table.
func (sp *Space) intern(a Assignment) uint32 {
	id := uint32(len(sp.nodes))
	sp.ids[a.key] = id
	sp.nodes = append(sp.nodes, a)
	sp.cover = append(sp.cover, coverUnknown)
	return id
}

// covered reports whether some valid assignment lies at or above node id,
// running the box-cover test on first need.
func (sp *Space) covered(id uint32) bool {
	if sp.cover[id] == coverUnknown {
		sp.cover[id] = coverNo
		if sp.coveredByValidBox(sp.nodes[id]) {
			sp.cover[id] = coverYes
		}
	}
	return sp.cover[id] == coverYes
}

// structuralInA is the cheap, key-free part of the 𝒜-membership test:
// multiplicity bounds, anchor caps and the MORE gate. The emit pipeline runs
// it before materializing a candidate's key so structurally impossible
// candidates cost zero allocations.
func (sp *Space) structuralInA(a Assignment) bool {
	for i, vs := range sp.Vars {
		// The traversal keeps multiplicity bounds on both sides: the paper's
		// Figure 3 lattice never drops below one value per mandatory
		// variable (its top node is (Attraction, Activity), not (∅, ∅)).
		if !vs.Mult.Allows(len(a.Vals[i])) {
			return false
		}
		for _, t := range a.Vals[i] {
			if !sp.respectsAnchors(i, t) {
				return false
			}
		}
	}
	return len(a.More) == 0 || sp.More
}

// respectsAnchors reports whether value t of variable i is at or below every
// anchor of i (or, with no anchors, has the right kind) — a precomputed bit
// probe; out-of-range terms (None, Any) are rejected by the range guard.
func (sp *Space) respectsAnchors(i int, t vocab.Term) bool {
	return sp.tab.anchorOK(i, t)
}

// walkBox reports whether every combination of one value per nonempty row
// of rows[i:] matches some valid base row. A position whose row is empty
// keeps the value already in the tuple: vocab.None for an empty value set
// (projection semantics), or a single-valued variable's pick.
func (sp *Space) walkBox(rows [][]vocab.Term, i int) bool {
	for i < len(rows) && len(rows[i]) == 0 {
		i++
	}
	if i == len(rows) {
		return sp.matchesSomeBase(sp.tupleBuf)
	}
	for _, v := range rows[i] {
		sp.tupleBuf[i] = v
		if !sp.walkBox(rows, i+1) {
			return false
		}
	}
	return true
}

// matchesSomeBase reports whether some valid base row agrees with tuple on
// all non-None positions.
func (sp *Space) matchesSomeBase(tuple []vocab.Term) bool {
	hasNone := false
	for _, t := range tuple {
		if t == vocab.None {
			hasNone = true
			break
		}
	}
	if !hasNone {
		return sp.IsValidBase(tuple)
	}
	for _, row := range sp.ValidBase {
		ok := true
		for i, t := range tuple {
			if t != vocab.None && row[i] != t {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// coveredByValidBox reports whether there exists a valid assignment ψ with
// a ≤ ψ: for each variable a set of covering valid values must exist whose
// full cross product lies in ValidBase. The search picks, per variable and
// per value of a, a covering valid value, then walks the box the picks span.
// It allocates nothing: a single-valued variable picks straight into the
// walk's tuple, and a multi-valued one stacks its picks, and their antichain
// (its row of the box), in the multi-valued scratch.
func (sp *Space) coveredByValidBox(a Assignment) bool {
	n := 0 // scratch the multi-valued variables' picks and rows take
	for i, vals := range a.Vals {
		for _, v := range vals {
			if len(sp.tab.coversOf(i, v)) == 0 {
				return false
			}
		}
		if len(vals) > 1 {
			n += 2 * len(vals)
		}
	}
	var rows [][]vocab.Term
	var picks []vocab.Term
	if n > 0 {
		ms := sp.scratch()
		clear(ms.rows)
		ms.picks = slices.Grow(ms.picks[:0], n)
		rows, picks = ms.rows, ms.picks
	}
	return sp.pickCover(a, rows, picks, 0, 0)
}

// pickCover picks a covering valid value for value j of variable i of a and
// for every later value, in variable order, and reports whether some choice
// spans a box of valid base rows. picks holds the multi-valued variables'
// picks and rows so far; rows is nil when a has no multi-valued variable.
func (sp *Space) pickCover(a Assignment, rows [][]vocab.Term, picks []vocab.Term, i, j int) bool {
	if i == len(a.Vals) {
		return sp.walkBox(rows, 0)
	}
	vals := a.Vals[i]
	if j == len(vals) {
		switch {
		case len(vals) == 0:
			sp.tupleBuf[i] = vocab.None
		case len(vals) > 1:
			// The box's row: the picks' antichain, most specific values kept.
			out := sp.Voc.AppendReduceAntichain(picks, picks[len(picks)-len(vals):])
			rows[i], picks = out[len(picks):], out
		}
		return sp.pickCover(a, rows, picks, i+1, 0)
	}
	for _, c := range sp.tab.coversOf(i, vals[j]) {
		next := picks
		if len(vals) == 1 {
			sp.tupleBuf[i] = c
		} else {
			next = append(picks, c)
		}
		if sp.pickCover(a, rows, next, i, j+1) {
			return true
		}
	}
	return false
}

// VarIndex returns the index of the named mining variable, or -1.
func (sp *Space) VarIndex(name string) int {
	for i, v := range sp.Vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Stats about the space, for reports.
func (sp *Space) String() string {
	names := make([]string, len(sp.Vars))
	for i, v := range sp.Vars {
		names[i] = "$" + v.Name + v.Mult.Marker()
	}
	return fmt.Sprintf("space(vars=%s, valid=%d)", strings.Join(names, ","), len(sp.ValidBase))
}
