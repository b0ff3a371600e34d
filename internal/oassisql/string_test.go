package oassisql

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fmtQueryString is the fmt-based renderer Query.String replaced, kept as
// its oracle: the query text keys plan caches and is recorded in plan
// fingerprints, goldens and store bindings, so the two must agree byte for
// byte.
func fmtQueryString(q *Query) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Select.String())
	if q.All {
		sb.WriteString(" ALL")
	}
	sb.WriteString("\nWHERE\n")
	for _, p := range q.Where {
		fmt.Fprintf(&sb, "  %s .\n", fmtPattern(p))
	}
	sb.WriteString("SATISFYING\n")
	for _, p := range q.Satisfying {
		fmt.Fprintf(&sb, "  %s .\n", fmtPattern(p))
	}
	if q.More {
		sb.WriteString("  MORE\n")
	}
	fmt.Fprintf(&sb, "WITH SUPPORT = %g", q.Support)
	return sb.String()
}

func fmtPattern(p Pattern) string {
	s := fmtAtom(p.S)
	if p.S.Kind == AtomVar {
		s += fmtMarker(p.SMult)
	}
	s += " " + fmtAtom(p.R)
	if p.Path {
		s += "*"
	}
	s += " " + fmtAtom(p.O)
	if p.O.Kind == AtomVar {
		s += fmtMarker(p.OMult)
	}
	return s
}

func fmtAtom(a Atom) string {
	switch a.Kind {
	case AtomVar:
		return "$" + a.Name
	case AtomLiteral:
		return fmtQuote(a.Name)
	case AtomAny:
		return "[]"
	default:
		if !fmtBareName(a.Name) {
			return fmtQuote(a.Name)
		}
		return a.Name
	}
}

func fmtBareName(name string) bool {
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

func fmtQuote(s string) string {
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

func fmtMarker(m Mult) string {
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

// testCorpus returns every string literal of the package's test files and
// its committed fuzz corpus: the parser tests' queries, valid or not.
func testCorpus(t *testing.T) []string {
	t.Helper()
	var out []string
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range corpus {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				if s, err := strconv.Unquote(strings.TrimSuffix(arg, ")")); err == nil {
					out = append(out, s)
				}
			}
		}
	}
	return append(out, fuzzSeeds...)
}

// genQuery builds a random query over every form the printer renders:
// both SELECT forms, ALL, MORE, every multiplicity marker, path relations,
// wildcards, literals, and term names that must be quoted.
func genQuery(rng *rand.Rand, supports []float64) *Query {
	names := []string{"Park", "doAt", "eat_at-2", "Rent Bikes", "select", "More", "satisfying",
		"SATISFYINGX", "9lives", `say "hi"`, `back\slash`, "line\nbreak", "", "ünï"}
	mults := []Mult{MultOne, MultPlus, MultStar, MultOptional, {2, -1}, {1, 3}, {2, 2}, {0, 12}}
	atom := func() Atom {
		switch rng.Intn(4) {
		case 0:
			return Var(fmt.Sprintf("v%d", rng.Intn(3)))
		case 1:
			return Atom{Kind: AtomLiteral, Name: names[rng.Intn(len(names))]}
		case 2:
			return Atom{Kind: AtomAny}
		}
		return TermAtom(names[rng.Intn(len(names))])
	}
	patterns := func() []Pattern {
		ps := make([]Pattern, rng.Intn(4))
		for i := range ps {
			ps[i] = Pattern{S: atom(), SMult: mults[rng.Intn(len(mults))], R: atom(),
				Path: rng.Intn(2) == 0, O: atom(), OMult: mults[rng.Intn(len(mults))]}
		}
		return ps
	}
	return &Query{
		Select:     SelectForm(rng.Intn(2)),
		All:        rng.Intn(2) == 0,
		Where:      patterns(),
		Satisfying: patterns(),
		More:       rng.Intn(2) == 0,
		Support:    supports[rng.Intn(len(supports))],
	}
}

// TestQueryStringMatchesFmt checks the fmt-free Query.String against the
// fmt-based oracle on the parser tests' queries, mutations of them, and
// generated queries.
func TestQueryStringMatchesFmt(t *testing.T) {
	for kw := range keywords {
		if len(kw) > maxKeywordLen {
			t.Fatalf("keyword %q is longer than maxKeywordLen (%d)", kw, maxKeywordLen)
		}
	}
	check := func(what string, q *Query) {
		t.Helper()
		if got, want := q.String(), fmtQueryString(q); got != want {
			t.Fatalf("%s: Query.String differs from the fmt oracle:\n got %q\nwant %q", what, got, want)
		}
	}

	const alphabet = "aZ $.*+?[]\"{},=0123456789\n"
	rng := rand.New(rand.NewSource(29))
	parsed := 0
	for _, src := range testCorpus(t) {
		for i := 0; i <= 20; i++ {
			text := src
			if i > 0 && len(src) > 0 { // a mutation: one byte flipped or a span dropped
				b := []byte(src)
				j := rng.Intn(len(b))
				if rng.Intn(2) == 0 {
					b[j] = alphabet[rng.Intn(len(alphabet))]
				} else {
					b = append(b[:j], b[min(len(b), j+1+rng.Intn(8)):]...)
				}
				text = string(b)
			}
			if q, err := Parse(text); err == nil {
				parsed++
				check(fmt.Sprintf("parsed %q", text), q)
			}
		}
	}
	if parsed < 50 {
		t.Fatalf("only %d corpus queries parsed; the check needs a corpus", parsed)
	}

	supports := []float64{0.1, 1e-07, 0.30000000000000004, 0.4, 1, 0.5, 1e21, 123456.789,
		5e-324, math.MaxFloat64, 0, math.Copysign(0, -1), -0.25, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 300; i++ {
		supports = append(supports, rng.Float64(), math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 2000; i++ {
		check("generated", genQuery(rng, supports))
	}
}
