package rdfio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"oassis/internal/fact"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// percentEncode is appendPercentEncoded into a fresh string.
func percentEncode(s string) string { return string(appendPercentEncoded(nil, s)) }

// fmtPercentEncode is percent-encoding as it was written with fmt, kept
// for fmtWrite.
func fmtPercentEncode(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || strings.IndexByte(`<>"{}|\^%#/`, c) >= 0 || c >= 0x7f {
			fmt.Fprintf(&sb, "%%%02X", c)
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// fmtWrite is Write as it was written with a fmt.Fprintf per line, kept as
// the oracle of the byte-append writer.
func fmtWrite(w io.Writer, o *ontology.Ontology) error {
	bw := bufio.NewWriter(w)
	v := o.Vocabulary()

	fmt.Fprintf(bw, "@prefix e: <%s> .\n", defaultElemNS)
	fmt.Fprintf(bw, "@prefix r: <%s> .\n", defaultRelNS)
	fmt.Fprintf(bw, "@prefix kind: <%s> .\n\n", kindNS)

	elem := func(t vocab.Term) string { return "e:" + fmtPercentEncode(v.Name(t)) }
	rel := func(t vocab.Term) string { return "r:" + fmtPercentEncode(v.Name(t)) }

	used := make([]bool, v.Len())
	for _, f := range o.Facts() {
		used[f.S], used[f.R], used[f.O] = true, true, true
	}
	for t := 0; t < v.Len(); t++ {
		term := vocab.Term(t)
		if len(o.LabelsOf(term)) > 0 {
			used[t] = true
		}
		if v.KindOf(term) == vocab.Relation {
			for _, c := range v.Children(term) {
				used[t], used[c] = true, true
			}
		}
	}
	for t := 0; t < v.Len(); t++ {
		if used[t] {
			continue
		}
		term := vocab.Term(t)
		if v.KindOf(term) == vocab.Element {
			fmt.Fprintf(bw, "%s a kind:Element .\n", elem(term))
		} else {
			fmt.Fprintf(bw, "%s a kind:Relation .\n", rel(term))
		}
	}
	for t := 0; t < v.Len(); t++ {
		term := vocab.Term(t)
		if v.KindOf(term) != vocab.Relation {
			continue
		}
		for _, child := range v.Children(term) {
			fmt.Fprintf(bw, "%s r:subPropertyOf %s .\n", rel(child), rel(term))
		}
	}
	for _, f := range o.Facts() {
		fmt.Fprintf(bw, "%s %s %s .\n", elem(f.S), rel(f.R), elem(f.O))
	}
	var labeled []vocab.Term
	for t := 0; t < v.Len(); t++ {
		labeled = append(labeled, vocab.Term(t))
	}
	sort.Slice(labeled, func(i, j int) bool { return labeled[i] < labeled[j] })
	for _, t := range labeled {
		for _, l := range o.LabelsOf(t) {
			fmt.Fprintf(bw, "%s r:hasLabel %q .\n", elem(t), l)
		}
	}
	return bw.Flush()
}

// oddOntology builds an ontology that reaches every line Write emits:
// vocabulary-only elements and relations, relation order edges, facts,
// and several labels per term, over names and labels that need percent
// coding or quoting (spaces, '%', '/', quotes, control bytes, UTF-8 and
// invalid UTF-8), with a tree of 600 elements so the output spans many
// write chunks.
func oddOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	v := vocab.New()
	sub := v.MustAddRelation("subClassOf")
	near := v.MustAddRelation("near by/%")
	inside := v.MustAddRelation("in\"side\"")
	v.MustAddRelation("unused relation")
	v.MustAddOrder(near, inside)
	root := v.MustAddElement("Thing #1")
	odd := v.MustAddElement("Café <\"{}|\\^%#/>\x01\x7f\xff")
	v.MustAddElement("unused\telement")
	v.MustAddOrder(root, odd)
	prev := []vocab.Term{root}
	for i := 0; i < 600; i++ {
		e := v.MustAddElement(fmt.Sprintf("term %d ✓", i))
		v.MustAddOrder(prev[i%len(prev)], e)
		prev = append(prev, e)
	}
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	o := ontology.New(v)
	for p := 0; p < v.Len(); p++ {
		for _, c := range v.Children(vocab.Term(p)) {
			if v.KindOf(c) == vocab.Element {
				o.MustAdd(fact.Fact{S: c, R: sub, O: vocab.Term(p)})
			}
		}
	}
	o.MustAdd(fact.Fact{S: odd, R: inside, O: root})
	for i, l := range []string{"child-friendly", "say \"hi\"\n\ttab", "naïve ✓ 水", "bad \xff\xfe utf8", "nul\x00bell\a", "back\\slash"} {
		if err := o.AddLabel(prev[i*97%len(prev)], l); err != nil {
			t.Fatal(err)
		}
		if err := o.AddLabel(odd, l); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// TestWriteMatchesFmt: the byte-append writer writes exactly the bytes the
// fmt writer did, on the Figure 1 ontology and on an ontology of odd names
// and labels whose output spans many write chunks.
func TestWriteMatchesFmt(t *testing.T) {
	odd := oddOntology(t)
	for _, c := range []struct {
		name string
		o    *ontology.Ontology
	}{{"figure 1", ontology.NewSample().Onto}, {"odd names", odd}} {
		var got, want bytes.Buffer
		if err := Write(&got, c.o); err != nil {
			t.Fatal(err)
		}
		if err := fmtWrite(&want, c.o); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Write differs from the fmt oracle:\n%s\n--- oracle\n%s", c.name, got.Bytes(), want.Bytes())
		}
		if c.o == odd && got.Len() < 8*writeChunk {
			t.Fatalf("odd names: %d bytes of Turtle, want several write chunks", got.Len())
		}
	}
}
