package rdfio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

const sampleTurtle = `
@prefix e: <http://oassis.example/e/> .
@prefix r: <http://oassis.example/r/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

# relation order: inside is more specific than nearBy
r:inside r:subPropertyOf r:nearBy .

e:Place r:subClassOf e:Thing .
e:Attraction r:subClassOf e:Place .
e:Park r:subClassOf e:Attraction .
e:Central%20Park a e:Park .
e:NYC a e:City .
e:City r:subClassOf e:Place .
e:Central%20Park r:inside e:NYC .
e:Maoz%20Veg r:nearBy e:Central%20Park ; a e:Restaurant .
e:Restaurant r:subClassOf e:Place .
e:Central%20Park rdfs:label "child-friendly" .
`

func TestLoadSample(t *testing.T) {
	v, o, err := Load(strings.NewReader(sampleTurtle))
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := v.Lookup("Central Park")
	if !ok {
		t.Fatal("Central Park not interned (percent decoding failed?)")
	}
	park, _ := v.Lookup("Park")
	attraction, _ := v.Lookup("Attraction")
	if !v.Leq(park, cp) {
		t.Error("Park ≤ Central Park expected (instanceOf mirrored into order)")
	}
	if !v.Leq(attraction, cp) {
		t.Error("Attraction ≤ Central Park expected (transitive)")
	}
	nearBy, _ := v.Lookup("nearBy")
	inside, _ := v.Lookup("inside")
	if !v.Leq(nearBy, inside) {
		t.Error("nearBy ≤ inside expected from subPropertyOf")
	}
	nyc, _ := v.Lookup("NYC")
	if !o.Holds(cp, nearBy, nyc) {
		t.Error("Central Park nearBy NYC should hold via inside")
	}
	if !o.HasLabel(cp, "child-friendly") {
		t.Error("label lost")
	}
	maoz, _ := v.Lookup("Maoz Veg")
	if !o.Holds(maoz, nearBy, cp) {
		t.Error("semicolon-continued triple lost")
	}
	rest, _ := v.Lookup("Restaurant")
	if !v.Leq(rest, maoz) {
		t.Error("a-keyword instanceOf lost")
	}
	if !v.Frozen() {
		t.Error("vocabulary not frozen")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown prefix", `x:a x:b x:c .`},
		{"unterminated IRI", `<http://x`},
		{"missing dot after prefix", "@prefix e: <http://x/>\ne:a e:b e:c ."},
		{"literal as subject", `"lit" <http://x/p> <http://x/o> .`},
		{"literal in plain fact", `<http://x/a> <http://x/p> "lit" .`},
		{"label with iri object", `<http://x/a> <http://x/hasLabel> <http://x/o> .`},
		{"unterminated literal", `<http://x/a> <http://x/hasLabel> "oops`},
		{"bad escape", `<http://x/a> <http://x/hasLabel> "a\q" .`},
		{"cycle", `<http://x/a> <http://x/subClassOf> <http://x/b> .
		           <http://x/b> <http://x/subClassOf> <http://x/a> .`},
	}
	for _, c := range cases {
		if _, _, err := Load(strings.NewReader(c.src)); err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestCommentsAndCommas(t *testing.T) {
	src := `
# leading comment
<http://x/a> <http://x/likes> <http://x/b> , <http://x/c> . # trailing
`
	v, o, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := v.Lookup("a")
	likes, _ := v.Lookup("likes")
	b, _ := v.Lookup("b")
	c, _ := v.Lookup("c")
	if !o.Holds(a, likes, b) || !o.Holds(a, likes, c) {
		t.Error("comma-separated objects lost")
	}
}

func TestRoundTrip(t *testing.T) {
	s := ontology.NewSample()
	var buf bytes.Buffer
	if err := Write(&buf, s.Onto); err != nil {
		t.Fatal(err)
	}
	v2, o2, err := Load(&buf)
	if err != nil {
		t.Fatalf("reload: %v\ndocument:\n%s", err, buf.String())
	}
	if o2.Len() != s.Onto.Len() {
		t.Errorf("fact count: got %d, want %d", o2.Len(), s.Onto.Len())
	}
	// Spot-check semantics.
	cp, ok := v2.Lookup("Central Park")
	if !ok {
		t.Fatal("Central Park lost in round trip")
	}
	attraction, _ := v2.Lookup("Attraction")
	if !v2.Leq(attraction, cp) {
		t.Error("order lost in round trip")
	}
	if !o2.HasLabel(cp, "child-friendly") {
		t.Error("label lost in round trip")
	}
	nearBy, _ := v2.Lookup("nearBy")
	inside, _ := v2.Lookup("inside")
	if !v2.Leq(nearBy, inside) {
		t.Error("relation order lost in round trip")
	}
	// Every original fact must hold in the reloaded ontology.
	for _, f := range s.Onto.Facts() {
		s2, ok1 := v2.Lookup(s.Voc.Name(f.S))
		r2, ok2 := v2.Lookup(s.Voc.Name(f.R))
		ob2, ok3 := v2.Lookup(s.Voc.Name(f.O))
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("term of %s lost", f.Format(s.Voc))
		}
		if !o2.Holds(s2, r2, ob2) {
			t.Errorf("fact %s lost", f.Format(s.Voc))
		}
	}
}

func TestPercentCoding(t *testing.T) {
	cases := []string{"Central Park", "Maoz Veg", "a%b", "tab\tname", "plain"}
	for _, c := range cases {
		if got := percentDecode(percentEncode(c)); got != c {
			t.Errorf("round trip %q = %q", c, got)
		}
	}
	if percentEncode("Central Park") != "Central%20Park" {
		t.Errorf("encode: %q", percentEncode("Central Park"))
	}
	// Malformed escapes decode literally rather than failing.
	if got := percentDecode("a%zz"); got != "a%zz" {
		t.Errorf("malformed decode = %q", got)
	}
}

func TestWriteDeterministic(t *testing.T) {
	s := ontology.NewSample()
	var a, b bytes.Buffer
	if err := Write(&a, s.Onto); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, s.Onto); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Write output not deterministic")
	}
}

func TestLoadEmptyDocument(t *testing.T) {
	v, o, err := Load(strings.NewReader("  \n# only a comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 || o.Len() != 0 {
		t.Error("empty document produced terms/facts")
	}
}

func TestKindConflict(t *testing.T) {
	// `p` used both as predicate and as element must error.
	src := `<http://x/a> <http://x/p> <http://x/b> .
	        <http://x/p> <http://x/q> <http://x/b> .`
	if _, _, err := Load(strings.NewReader(src)); err == nil {
		t.Error("kind conflict accepted")
	}
	_ = vocab.New() // keep import
}

func TestRoundTripKeepsVocabularyOnlyTerms(t *testing.T) {
	// Terms that occur in personal histories but never in ontology facts
	// (Boathouse, Rent Bikes, doAt, eatAt in the sample) must survive a
	// Write/Load round trip through kind declarations.
	s := ontology.NewSample()
	var buf bytes.Buffer
	if err := Write(&buf, s.Onto); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kind:Element") || !strings.Contains(buf.String(), "kind:Relation") {
		t.Fatalf("no kind declarations emitted:\n%s", buf.String())
	}
	v2, o2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Boathouse", "Rent Bikes"} {
		term, ok := v2.Lookup(name)
		if !ok {
			t.Fatalf("element %q lost in round trip", name)
		}
		if v2.KindOf(term) != vocab.Element {
			t.Errorf("%q has wrong kind", name)
		}
	}
	for _, name := range []string{"doAt", "eatAt"} {
		term, ok := v2.Lookup(name)
		if !ok {
			t.Fatalf("relation %q lost in round trip", name)
		}
		if v2.KindOf(term) != vocab.Relation {
			t.Errorf("%q has wrong kind", name)
		}
	}
	if o2.Len() != s.Onto.Len() {
		t.Errorf("fact count changed: %d vs %d", o2.Len(), s.Onto.Len())
	}
	// The declarations must not have created spurious facts.
	boathouse, _ := v2.Lookup("Boathouse")
	if got := o2.Match(boathouse, vocab.None, vocab.None); len(got) != 0 {
		t.Errorf("declaration created facts: %v", got.Format(v2))
	}
}

// TestRoundTripQuotedLabels: Load reads back every escape Write's
// strconv quoting produces — the short escapes, \x for control and
// invalid UTF-8 bytes, \u and \U for non-printable runes — so each
// label reloads byte for byte.
func TestRoundTripQuotedLabels(t *testing.T) {
	var control []byte
	for b := byte(0); b < 0x20; b++ {
		control = append(control, b)
	}
	control = append(control, 0x7f)
	labels := []string{
		string(control),
		"bad \xff utf8",
		"lone \x80 continuation, cut \xe6\xb0 rune, \xfe\xff",
		"soft\u00adhyphen, zero\u200bwidth, \ufeff bom, private \ue000",
		"begin beam \U0001d173, last \U0010ffff",
		"naïve ✓ 水 \ufffd",
		`say "hi" \ back\slash`,
	}
	v := vocab.New()
	e := v.MustAddElement("labeled")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	o := ontology.New(v)
	for _, l := range labels {
		if err := o.AddLabel(e, l); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, o); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, esc := range []string{`\a`, `\b`, `\f`, `\n`, `\r`, `\t`, `\v`, `\\`, `\"`, `\x00`, `\xff`, `\u00ad`, `\U0001d173`} {
		if !strings.Contains(doc, esc) {
			t.Errorf("written document has no %s escape; the test no longer covers it:\n%s", esc, doc)
		}
	}
	v2, o2, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("reload: %v\ndocument:\n%s", err, doc)
	}
	e2, ok := v2.Lookup("labeled")
	if !ok {
		t.Fatal("labeled term lost in round trip")
	}
	got, want := o2.LabelsOf(e2), o.LabelsOf(e)
	if len(got) != len(want) {
		t.Fatalf("reloaded %d labels, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d reloaded as %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLoadBadEscapes: an escape strconv.Quote never writes, or one cut
// short, is a parse error rather than a silently altered label.
func TestLoadBadEscapes(t *testing.T) {
	for _, lit := range []string{`"\q"`, `"\'"`, `"\x4"`, `"\xZZ"`, `"\u12"`, `"\ud800"`, `"\U00110000"`, `"\012"`, `"\`} {
		src := "<u:a> <u:hasLabel> " + lit + " ."
		if _, _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load accepted the literal %s", lit)
		}
	}
}

// TestLoadRejectsInvalidUTF8: a raw byte that starts no valid UTF-8
// sequence — the Latin-1 "café" — fails with its line number in a string
// literal, an IRI, a prefixed name and a prefix label, where it used to
// load as U+FFFD; an encoded U+FFFD and the \xe9 escape still load.
func TestLoadRejectsInvalidUTF8(t *testing.T) {
	for _, src := range []string{
		"<u/a> a <u/B> .\n<u/a> <u/hasLabel> \"caf\xe9\" .",
		"<u:a> a <u:B> .\n<u:caf\xe9> a <u:B> .",
		"@prefix e: <u:> .\ne:caf\xe9 a e:B .",
		"<u:a> a <u:B> .\n@prefix caf\xe9: <u:> .",
	} {
		_, _, err := Load(strings.NewReader(src))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 || pe.Msg != "invalid UTF-8" {
			t.Errorf("Load(%q) = %v, want line 2: invalid UTF-8", src, err)
		}
	}
	for _, lit := range []string{"caf\uFFFD", `caf\xe9`} {
		v, o, err := Load(strings.NewReader("<u/a> <u/hasLabel> \"" + lit + "\" ."))
		if err != nil {
			t.Fatalf("Load rejected %q: %v", lit, err)
		}
		a, _ := v.Lookup("a")
		if want := strings.ReplaceAll(lit, `\xe9`, "\xe9"); !o.HasLabel(a, want) {
			t.Errorf("%q did not load as the label %q: %v", lit, want, o.LabelsOf(a))
		}
	}
}
