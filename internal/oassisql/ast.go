package oassisql

import (
	"fmt"
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
	switch a.Kind {
	case AtomVar:
		return "$" + a.Name
	case AtomLiteral:
		return quote(a.Name)
	case AtomAny:
		return "[]"
	default:
		if !bareName(a.Name) {
			return quote(a.Name)
		}
		return a.Name
	}
}

// bareName reports whether a term name lexes back as one identifier: not
// empty, identifier bytes only, no leading digit (that lexes as a number)
// and not a keyword.
func bareName(name string) bool {
	if name == "" || isDigit(name[0]) {
		return false
	}
	for i := 0; i < len(name); i++ {
		if !isIdentByte(name[i]) {
			return false
		}
	}
	_, kw := keywords[strings.ToUpper(name)]
	return !kw
}

// quote renders s as a string token, escaping exactly what the lexer
// unescapes (Go's %q emits escapes the lexer rejects).
func quote(s string) string {
	var sb strings.Builder
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
	return sb.String()
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
	if m.Max < 0 {
		return fmt.Sprintf("{%d,}", m.Min)
	}
	return fmt.Sprintf("{%d,%d}", m.Min, m.Max)
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
	sb.WriteString(p.S.String())
	if p.S.Kind == AtomVar {
		sb.WriteString(p.SMult.Marker())
	}
	sb.WriteByte(' ')
	sb.WriteString(p.R.String())
	if p.Path {
		sb.WriteByte('*')
	}
	sb.WriteByte(' ')
	sb.WriteString(p.O.String())
	if p.O.Kind == AtomVar {
		sb.WriteString(p.OMult.Marker())
	}
	return sb.String()
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
// result parses back to an equivalent query.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Select.String())
	if q.All {
		sb.WriteString(" ALL")
	}
	sb.WriteString("\nWHERE\n")
	for _, p := range q.Where {
		fmt.Fprintf(&sb, "  %s .\n", p)
	}
	sb.WriteString("SATISFYING\n")
	for _, p := range q.Satisfying {
		fmt.Fprintf(&sb, "  %s .\n", p)
	}
	if q.More {
		sb.WriteString("  MORE\n")
	}
	fmt.Fprintf(&sb, "WITH SUPPORT = %g", q.Support)
	return sb.String()
}
