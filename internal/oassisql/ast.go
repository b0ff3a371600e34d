package oassisql

import (
	"strconv"
	"strings"
)

// SelectForm is the requested answer format.
type SelectForm int

// The two SELECT forms of OASSIS-QL.
const (
	SelectFactSets  SelectForm = iota // SELECT FACT-SETS
	SelectVariables                   // SELECT VARIABLES
)

func (s SelectForm) String() string {
	if s == SelectVariables {
		return "VARIABLES"
	}
	return "FACT-SETS"
}

// AtomKind classifies pattern components.
type AtomKind int

// Atom kinds.
const (
	AtomVar     AtomKind = iota // $x
	AtomTerm                    // vocabulary term name
	AtomLiteral                 // quoted label literal (hasLabel objects)
	AtomAny                     // []
)

// Atom is one component of a triple pattern.
type Atom struct {
	Kind AtomKind
	Name string // variable name, term name, or literal text
}

// Var returns a variable atom.
func Var(name string) Atom { return Atom{Kind: AtomVar, Name: name} }

// TermAtom returns a term-name atom.
func TermAtom(name string) Atom { return Atom{Kind: AtomTerm, Name: name} }

func (a Atom) String() string {
	var sb strings.Builder
	a.writeTo(&sb)
	return sb.String()
}

// writeTo renders the atom into sb.
func (a Atom) writeTo(sb *strings.Builder) {
	switch a.Kind {
	case AtomVar:
		sb.WriteByte('$')
		sb.WriteString(a.Name)
	case AtomLiteral:
		writeQuoted(sb, a.Name)
	case AtomAny:
		sb.WriteString("[]")
	default:
		if !bareName(a.Name) {
			writeQuoted(sb, a.Name)
			return
		}
		sb.WriteString(a.Name)
	}
}

// maxKeywordLen is the length of the longest keyword, SATISFYING.
const maxKeywordLen = 10

// bareName reports whether a term name lexes back as one identifier: not
// empty, identifier bytes only, no leading digit (that lexes as a number)
// and not a keyword. The keyword test upper-cases into a stack buffer, so
// it allocates nothing.
func bareName(name string) bool {
	if name == "" || isDigit(name[0]) {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isIdentByte(name[i]) {
			return false
		}
	}
	if len(name) > maxKeywordLen {
		return true
	}
	var up [maxKeywordLen]byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	_, kw := keywords[string(up[:len(name)])]
	return !kw
}

// writeQuoted writes s as a string token, escaping exactly what the lexer
// unescapes (Go's %q emits escapes the lexer rejects).
func writeQuoted(sb *strings.Builder, s string) {
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
}

// Mult is a variable multiplicity range; Max < 0 means unbounded.
type Mult struct {
	Min, Max int
}

// The standard multiplicities of Section 3.
var (
	MultOne      = Mult{1, 1}  // default: exactly one
	MultPlus     = Mult{1, -1} // + : at least one
	MultStar     = Mult{0, -1} // * : any number
	MultOptional = Mult{0, 1}  // ? : optional
)

// Marker returns the concrete-syntax marker for m ("" for exactly-one).
func (m Mult) Marker() string {
	switch m {
	case MultOne:
		return ""
	case MultPlus:
		return "+"
	case MultStar:
		return "*"
	case MultOptional:
		return "?"
	}
	s := "{" + strconv.Itoa(m.Min) + ","
	if m.Max >= 0 {
		s += strconv.Itoa(m.Max)
	}
	return s + "}"
}

// Allows reports whether a set of n values satisfies the multiplicity.
func (m Mult) Allows(n int) bool {
	return n >= m.Min && (m.Max < 0 || n <= m.Max)
}

// Pattern is one triple pattern. SMult/OMult carry multiplicity markers
// attached to variable occurrences in the SATISFYING clause; Path marks the
// zero-or-more path operator on the relation (rel*).
type Pattern struct {
	S     Atom
	SMult Mult
	R     Atom
	Path  bool
	O     Atom
	OMult Mult
	Pos   Pos
}

func (p Pattern) String() string {
	var sb strings.Builder
	p.writeTo(&sb)
	return sb.String()
}

// writeTo renders the pattern into sb.
func (p Pattern) writeTo(sb *strings.Builder) {
	p.S.writeTo(sb)
	if p.S.Kind == AtomVar {
		sb.WriteString(p.SMult.Marker())
	}
	sb.WriteByte(' ')
	p.R.writeTo(sb)
	if p.Path {
		sb.WriteByte('*')
	}
	sb.WriteByte(' ')
	p.O.writeTo(sb)
	if p.O.Kind == AtomVar {
		sb.WriteString(p.OMult.Marker())
	}
}

// Query is a parsed OASSIS-QL query.
type Query struct {
	Select     SelectForm
	All        bool // SELECT ... ALL: return all significant patterns, not only MSPs
	Where      []Pattern
	Satisfying []Pattern
	More       bool // the MORE keyword appeared in the SATISFYING clause
	Support    float64

	// SatisfyingPos and SupportPos locate the SATISFYING keyword and the
	// support number in the source text, so every validation error carries
	// a line/column position (both zero for programmatically built queries).
	SatisfyingPos Pos
	SupportPos    Pos
}

// Vars returns the variable names occurring in the given patterns, in first-
// occurrence order.
func Vars(patterns []Pattern) []string {
	var out []string
	seen := map[string]bool{}
	add := func(a Atom) {
		if a.Kind == AtomVar && !seen[a.Name] {
			seen[a.Name] = true
			out = append(out, a.Name)
		}
	}
	for _, p := range patterns {
		add(p.S)
		add(p.R)
		add(p.O)
	}
	return out
}

// String renders the query in canonical OASSIS-QL concrete syntax; the
// result parses back to an equivalent query. The text keys the plan cache
// and is what fingerprints, goldens and store bindings record, so it is
// built without fmt but must never change: the support prints exactly as
// fmt's %g prints it, the shortest form that parses back to the same value.
func (q *Query) String() string {
	var sb strings.Builder
	sb.Grow(64 + 40*(len(q.Where)+len(q.Satisfying)))
	sb.WriteString("SELECT ")
	sb.WriteString(q.Select.String())
	if q.All {
		sb.WriteString(" ALL")
	}
	sb.WriteString("\nWHERE\n")
	for _, p := range q.Where {
		writePattern(&sb, p)
	}
	sb.WriteString("SATISFYING\n")
	for _, p := range q.Satisfying {
		writePattern(&sb, p)
	}
	if q.More {
		sb.WriteString("  MORE\n")
	}
	sb.WriteString("WITH SUPPORT = ")
	var num [32]byte
	sb.Write(strconv.AppendFloat(num[:0], q.Support, 'g', -1, 64))
	return sb.String()
}

// writePattern writes one pattern line of a clause.
func writePattern(sb *strings.Builder, p Pattern) {
	sb.WriteString("  ")
	p.writeTo(sb)
	sb.WriteString(" .\n")
}
