package rdfio

import (
	"strings"
	"testing"
)

// FuzzLoad exercises the Turtle reader with arbitrary inputs; it must never
// panic. Plain `go test` runs the seed corpus.
func FuzzLoad(f *testing.F) {
	seeds := []string{
		"",
		sampleTurtle,
		"@prefix e: <http://x/> .\ne:a e:b e:c .",
		`<u:a> a <u:B> ; <u:p> <u:c> , <u:d> . # comment`,
		`<u:a> <u:hasLabel> "lit \n esc" .`,
		`<u:a> <u:hasLabel> "\a\x00\xff\u00ad\U0001d173" .`,
		"@prefix",
		"<unterminated",
		`"literal start`,
		"e:no-prefix e:b e:c .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _, _ = Load(strings.NewReader(src))
	})
}
