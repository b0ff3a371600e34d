package rdfio

import (
	"io"
	"strconv"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// writeChunk is how many bytes Write gathers before it hands them to its
// writer.
const writeChunk = 4 << 10

// Write serializes an ontology (facts, subsumptions, relation order and
// labels) in the Turtle subset understood by Load, so that
// Load(Write(o)) reproduces o. Every line is appended into one buffer,
// which is handed to w in chunks.
func Write(w io.Writer, o *ontology.Ontology) error {
	v := o.Vocabulary()
	buf := make([]byte, 0, 2*writeChunk)
	var err error
	// endLine ends a statement and passes a full buffer on.
	endLine := func() {
		buf = append(buf, " .\n"...)
		if len(buf) >= writeChunk {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	elem := func(t vocab.Term) {
		buf = append(buf, "e:"...)
		buf = appendPercentEncoded(buf, v.Name(t))
	}
	rel := func(t vocab.Term) {
		buf = append(buf, "r:"...)
		buf = appendPercentEncoded(buf, v.Name(t))
	}

	buf = append(buf, "@prefix e: <"+defaultElemNS+"> .\n"+
		"@prefix r: <"+defaultRelNS+"> .\n"+
		"@prefix kind: <"+kindNS+"> .\n\n"...)

	// Vocabulary-only terms (no facts, labels or order edges) would be lost
	// without explicit declarations.
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
			elem(term)
			buf = append(buf, " a kind:Element"...)
		} else {
			rel(term)
			buf = append(buf, " a kind:Relation"...)
		}
		endLine()
	}

	// Relation order edges (≤R) as subPropertyOf: specific subPropertyOf general.
	for t := 0; t < v.Len(); t++ {
		term := vocab.Term(t)
		if v.KindOf(term) != vocab.Relation {
			continue
		}
		for _, child := range v.Children(term) {
			rel(child)
			buf = append(buf, " r:subPropertyOf "...)
			rel(term)
			endLine()
		}
	}

	// Facts (subsumption facts are stored like any other facts, so this
	// also reproduces the element order when loaded back).
	for _, f := range o.Facts() {
		elem(f.S)
		buf = append(buf, ' ')
		rel(f.R)
		buf = append(buf, ' ')
		elem(f.O)
		endLine()
	}

	// Labels, by term id, each quoted as Go quotes a string.
	for t := 0; t < v.Len(); t++ {
		for _, l := range o.LabelsOf(vocab.Term(t)) {
			elem(vocab.Term(t))
			buf = append(buf, " r:hasLabel "...)
			buf = strconv.AppendQuote(buf, l)
			endLine()
		}
	}
	if err == nil {
		_, err = w.Write(buf)
	}
	return err
}
