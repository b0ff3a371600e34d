// Package rdfio reads and writes ontologies in a Turtle subset, standing in
// for the RDFLIB dependency of the paper's prototype (§6.1).
//
// Supported syntax: @prefix directives, IRIs in angle brackets, prefixed
// names, the `a` keyword, string literals, comments, and the `.` `;` `,`
// punctuation of Turtle. Term names are the percent-decoded local part of
// the IRI (after the last '/', '#' or ':'), so names with spaces round-trip
// as %20.
//
// Triple interpretation while loading:
//
//	s rdf:type / a / :instanceOf  o   → ontology instanceOf subsumption (o ≤E s)
//	s rdfs:subClassOf / :subClassOf o → ontology subClassOf subsumption (o ≤E s)
//	s rdfs:subPropertyOf / :subPropertyOf o → relation order (o ≤R s)
//	s rdfs:label / :hasLabel "lit"    → label on s
//	anything else                     → plain ontology fact
//
// Every predicate becomes a relation term; every subject/object of a
// non-label triple becomes an element term (except subPropertyOf triples,
// whose subject and object are relations).
package rdfio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"oassis/internal/fact"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// triple is a raw parsed Turtle triple. Object is either an IRI or, when
// literal is true, a string literal.
type triple struct {
	s, p, o string
	literal bool
	line    int
}

type parser struct {
	r        *bufio.Reader
	line     int
	prefixes map[string]string
	triples  []triple
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("turtle: line %d: %s", e.Line, e.Msg) }

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

// badByte returns an error when ReadRune decoded c from a byte that starts
// no valid UTF-8 sequence, which it passes on as U+FFFD: raw text must be
// UTF-8, and only a \xHH escape stands for a stray byte.
func (p *parser) badByte(c rune, size int) error {
	if c == utf8.RuneError && size == 1 {
		return p.errf("invalid UTF-8")
	}
	return nil
}

// escDigits is how many hex digits follow each escape letter a string
// literal may use: every escape strconv.Quote writes, so labels that
// Write quotes load back byte for byte.
var escDigits = map[rune]int{
	'a': 0, 'b': 0, 'f': 0, 'n': 0, 'r': 0, 't': 0, 'v': 0, '\\': 0, '"': 0,
	'x': 2, 'u': 4, 'U': 8,
}

// unescape reads the escape after a backslash in a string literal and
// writes what it stands for to sb: \xHH as the raw byte, so invalid UTF-8
// survives, and every other escape as its rune.
func (p *parser) unescape(sb *strings.Builder) error {
	e, _, err := p.r.ReadRune()
	if err != nil {
		return p.errf("unterminated escape")
	}
	n, ok := escDigits[e]
	if !ok {
		return p.errf("unknown escape \\%c", e)
	}
	esc := []byte{'\\', byte(e)} // every escape letter is ASCII
	for range n {
		d, err := p.r.ReadByte()
		if err != nil {
			return p.errf("unterminated escape")
		}
		esc = append(esc, d)
	}
	r, _, _, err := strconv.UnquoteChar(string(esc), '"')
	if err != nil {
		return p.errf("bad escape %q", esc)
	}
	if e == 'x' {
		sb.WriteByte(byte(r))
	} else {
		sb.WriteRune(r)
	}
	return nil
}

// token kinds
type tokKind int

const (
	tokEOF tokKind = iota
	tokIRI         // <...> fully expanded
	tokLiteral
	tokDot
	tokSemi
	tokComma
	tokA      // the `a` keyword
	tokPrefix // @prefix
)

type token struct {
	kind tokKind
	text string
}

func (p *parser) skipSpace() error {
	for {
		c, _, err := p.r.ReadRune()
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			return err
		}
		switch {
		case c == '\n':
			p.line++
		case c == ' ' || c == '\t' || c == '\r':
		case c == '#':
			for {
				c, _, err = p.r.ReadRune()
				if err == io.EOF {
					return io.EOF
				}
				if err != nil {
					return err
				}
				if c == '\n' {
					p.line++
					break
				}
			}
		default:
			if err := p.r.UnreadRune(); err != nil {
				return err
			}
			return nil
		}
	}
}

func (p *parser) next() (token, error) {
	if err := p.skipSpace(); err == io.EOF {
		return token{kind: tokEOF}, nil
	} else if err != nil {
		return token{}, err
	}
	c, size, err := p.r.ReadRune()
	if err != nil {
		return token{}, err
	}
	if err := p.badByte(c, size); err != nil {
		return token{}, err
	}
	switch c {
	case '.':
		return token{kind: tokDot}, nil
	case ';':
		return token{kind: tokSemi}, nil
	case ',':
		return token{kind: tokComma}, nil
	case '<':
		var sb strings.Builder
		for {
			c, size, err = p.r.ReadRune()
			if err != nil {
				return token{}, p.errf("unterminated IRI")
			}
			if err := p.badByte(c, size); err != nil {
				return token{}, err
			}
			if c == '>' {
				break
			}
			if c == '\n' {
				return token{}, p.errf("newline in IRI")
			}
			sb.WriteRune(c)
		}
		return token{kind: tokIRI, text: sb.String()}, nil
	case '"':
		var sb strings.Builder
		for {
			c, size, err = p.r.ReadRune()
			if err != nil {
				return token{}, p.errf("unterminated string literal")
			}
			if err := p.badByte(c, size); err != nil {
				return token{}, err
			}
			if c == '\\' {
				if err := p.unescape(&sb); err != nil {
					return token{}, err
				}
				continue
			}
			if c == '"' {
				break
			}
			if c == '\n' {
				return token{}, p.errf("newline in string literal")
			}
			sb.WriteRune(c)
		}
		return token{kind: tokLiteral, text: sb.String()}, nil
	}
	// Bare word: `a`, `@prefix`, or a prefixed name.
	var sb strings.Builder
	sb.WriteRune(c)
	for {
		c, size, err = p.r.ReadRune()
		if err == io.EOF {
			break
		}
		if err != nil {
			return token{}, err
		}
		if err := p.badByte(c, size); err != nil {
			return token{}, err
		}
		if strings.ContainsRune(" \t\r\n.;,<\"#", c) {
			// `.` terminates a prefixed name only when followed by
			// whitespace/EOF in real Turtle; our subset forbids dots inside
			// local names, which is fine for generated data.
			if err := p.r.UnreadRune(); err != nil {
				return token{}, err
			}
			break
		}
		sb.WriteRune(c)
	}
	w := sb.String()
	switch w {
	case "a":
		return token{kind: tokA}, nil
	case "@prefix":
		return token{kind: tokPrefix}, nil
	}
	// Prefixed name.
	i := strings.IndexByte(w, ':')
	if i < 0 {
		return token{}, p.errf("unexpected token %q", w)
	}
	base, ok := p.prefixes[w[:i]]
	if !ok {
		return token{}, p.errf("unknown prefix %q", w[:i])
	}
	return token{kind: tokIRI, text: base + w[i+1:]}, nil
}

func (p *parser) parseStatement(subject string) error {
	for {
		ptok, err := p.next()
		if err != nil {
			return err
		}
		var pred string
		switch ptok.kind {
		case tokIRI:
			pred = ptok.text
		case tokA:
			pred = rdfType
		default:
			return p.errf("expected predicate")
		}
		for {
			otok, err := p.next()
			if err != nil {
				return err
			}
			switch otok.kind {
			case tokIRI:
				p.triples = append(p.triples, triple{s: subject, p: pred, o: otok.text, line: p.line})
			case tokLiteral:
				p.triples = append(p.triples, triple{s: subject, p: pred, o: otok.text, literal: true, line: p.line})
			default:
				return p.errf("expected object")
			}
			sep, err := p.next()
			if err != nil {
				return err
			}
			switch sep.kind {
			case tokComma:
				continue
			case tokSemi:
				goto nextPredicate
			case tokDot:
				return nil
			default:
				return p.errf("expected , ; or . after object")
			}
		}
	nextPredicate:
	}
}

// Well-known predicate IRIs.
const (
	rdfType        = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	rdfsSubClass   = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	rdfsSubProp    = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
	rdfsLabel      = "http://www.w3.org/2000/01/rdf-schema#label"
	defaultElemNS  = "http://oassis.example/e/"
	defaultRelNS   = "http://oassis.example/r/"
	defaultLabelNS = "http://oassis.example/label/"
	// kindNS marks vocabulary-only declarations: `x a kind:Element` interns
	// x without any ontology fact (terms like Boathouse in the paper, which
	// occur in personal histories but not in the ontology).
	kindNS          = "http://oassis.example/kind/"
	kindElementIRI  = kindNS + "Element"
	kindRelationIRI = kindNS + "Relation"
)

// localName extracts the percent-decoded local part of an IRI.
func localName(iri string) string {
	idx := strings.LastIndexAny(iri, "/#")
	local := iri
	if idx >= 0 {
		local = iri[idx+1:]
	}
	return percentDecode(local)
}

func percentDecode(s string) string {
	if !strings.ContainsRune(s, '%') {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			hi, okH := unhex(s[i+1])
			lo, okL := unhex(s[i+2])
			if okH && okL {
				sb.WriteByte(hi<<4 | lo)
				i += 2
				continue
			}
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// appendPercentEncoded appends s to dst with every byte a prefixed name
// may not hold written as %XX (upper-case hex), the form percentDecode
// reverses.
func appendPercentEncoded(dst []byte, s string) []byte {
	const hexUpper = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || strings.IndexByte(`<>"{}|\^%#/`, c) >= 0 || c >= 0x7f {
			dst = append(dst, '%', hexUpper[c>>4], hexUpper[c&0xf])
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// classifies a predicate IRI into the loader's special roles.
func predicateRole(p string) string {
	switch p {
	case rdfType:
		return "instanceOf"
	case rdfsSubClass:
		return "subClassOf"
	case rdfsSubProp:
		return "subPropertyOf"
	case rdfsLabel:
		return "label"
	}
	switch localName(p) {
	case "instanceOf":
		return "instanceOf"
	case "subClassOf":
		return "subClassOf"
	case "subPropertyOf":
		return "subPropertyOf"
	case "hasLabel", "label":
		return "label"
	}
	return "fact"
}

// Load parses a Turtle-subset document and builds a vocabulary and ontology
// from it. The returned vocabulary is frozen.
func Load(r io.Reader) (*vocab.Vocabulary, *ontology.Ontology, error) {
	p := &parser{r: bufio.NewReader(r), line: 1, prefixes: map[string]string{}}
	if err := p.parseDocument(); err != nil {
		return nil, nil, err
	}
	v := vocab.New()
	o := ontology.New(v)

	// Pass 1: intern terms with the right kinds.
	relOf := func(name string) (vocab.Term, error) { return v.AddRelation(name) }
	elemOf := func(name string) (vocab.Term, error) { return v.AddElement(name) }
	isDecl := func(t triple) bool {
		return !t.literal && predicateRole(t.p) == "instanceOf" &&
			(t.o == kindElementIRI || t.o == kindRelationIRI)
	}
	for _, t := range p.triples {
		if isDecl(t) {
			var err error
			if t.o == kindElementIRI {
				_, err = elemOf(localName(t.s))
			} else {
				_, err = relOf(localName(t.s))
			}
			if err != nil {
				return nil, nil, err
			}
			continue
		}
		role := predicateRole(t.p)
		switch role {
		case "subPropertyOf":
			if t.literal {
				return nil, nil, fmt.Errorf("turtle: line %d: literal in subPropertyOf", t.line)
			}
			if _, err := relOf(localName(t.s)); err != nil {
				return nil, nil, err
			}
			if _, err := relOf(localName(t.o)); err != nil {
				return nil, nil, err
			}
		case "label":
			if !t.literal {
				return nil, nil, fmt.Errorf("turtle: line %d: label object must be a literal", t.line)
			}
			if _, err := elemOf(localName(t.s)); err != nil {
				return nil, nil, err
			}
		default:
			if t.literal {
				return nil, nil, fmt.Errorf("turtle: line %d: literal object only allowed with label predicates", t.line)
			}
			if _, err := elemOf(localName(t.s)); err != nil {
				return nil, nil, err
			}
			if _, err := elemOf(localName(t.o)); err != nil {
				return nil, nil, err
			}
			if role == "fact" || role == "instanceOf" || role == "subClassOf" {
				if _, err := relOf(displayPredicate(t.p, role)); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	// Ensure a hasLabel relation exists if labels are present (for queries).
	hasLabels := false
	for _, t := range p.triples {
		if predicateRole(t.p) == "label" {
			hasLabels = true
			break
		}
	}
	if hasLabels {
		if _, err := v.AddRelation("hasLabel"); err != nil {
			return nil, nil, err
		}
	}

	// Pass 2: build order edges, facts, labels.
	for _, t := range p.triples {
		if isDecl(t) {
			continue
		}
		role := predicateRole(t.p)
		switch role {
		case "subPropertyOf":
			// s subPropertyOf o: s is the more specific relation, so o ≤R s.
			spec, _ := v.Lookup(localName(t.s))
			gen, _ := v.Lookup(localName(t.o))
			if err := v.AddOrder(gen, spec); err != nil {
				return nil, nil, fmt.Errorf("turtle: line %d: %v", t.line, err)
			}
		case "label":
			s, _ := v.Lookup(localName(t.s))
			if err := o.AddLabel(s, t.o); err != nil {
				return nil, nil, err
			}
		case "instanceOf", "subClassOf":
			s, _ := v.Lookup(localName(t.s))
			obj, _ := v.Lookup(localName(t.o))
			rel, _ := v.Lookup(displayPredicate(t.p, role))
			// s role o: o is the more general term.
			if err := o.AddSubsumption(obj, s, rel); err != nil {
				return nil, nil, fmt.Errorf("turtle: line %d: %v", t.line, err)
			}
		default:
			s, _ := v.Lookup(localName(t.s))
			obj, _ := v.Lookup(localName(t.o))
			rel, _ := v.Lookup(displayPredicate(t.p, role))
			if err := o.Add(fact.Fact{S: s, R: rel, O: obj}); err != nil {
				return nil, nil, fmt.Errorf("turtle: line %d: %v", t.line, err)
			}
		}
	}
	if err := v.Freeze(); err != nil {
		return nil, nil, err
	}
	return v, o, nil
}

// displayPredicate maps a predicate IRI to its vocabulary relation name.
func displayPredicate(iri, role string) string {
	switch role {
	case "instanceOf":
		return "instanceOf"
	case "subClassOf":
		return "subClassOf"
	}
	return localName(iri)
}

// parseDocument handles @prefix lines specially (the generic lexer cannot,
// because prefix labels are not resolvable names) and then parses triples.
func (p *parser) parseDocument() error {
	for {
		if err := p.skipSpace(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		// Peek for "@prefix".
		peek, err := p.r.Peek(7)
		if err == nil && string(peek) == "@prefix" {
			if _, err := p.r.Discard(7); err != nil {
				return err
			}
			if err := p.readPrefixDecl(); err != nil {
				return err
			}
			continue
		}
		tok, err := p.next()
		if err != nil {
			return err
		}
		if tok.kind == tokEOF {
			return nil
		}
		if tok.kind != tokIRI {
			return p.errf("expected subject IRI")
		}
		if err := p.parseStatement(tok.text); err != nil {
			return err
		}
	}
}

func (p *parser) readPrefixDecl() error {
	if err := p.skipSpace(); err != nil {
		return p.errf("unterminated @prefix")
	}
	var label strings.Builder
	for {
		c, size, err := p.r.ReadRune()
		if err != nil {
			return p.errf("unterminated @prefix")
		}
		if err := p.badByte(c, size); err != nil {
			return err
		}
		if c == ':' {
			break
		}
		if strings.ContainsRune(" \t\r\n", c) {
			return p.errf("malformed prefix label")
		}
		label.WriteRune(c)
	}
	if err := p.skipSpace(); err != nil {
		return p.errf("unterminated @prefix")
	}
	tok, err := p.next()
	if err != nil {
		return err
	}
	if tok.kind != tokIRI {
		return p.errf("expected IRI in @prefix")
	}
	dot, err := p.next()
	if err != nil {
		return err
	}
	if dot.kind != tokDot {
		return p.errf("expected . after @prefix")
	}
	p.prefixes[label.String()] = tok.text
	return nil
}
