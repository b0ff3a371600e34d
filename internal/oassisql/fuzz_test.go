package oassisql

import "testing"

// fuzzSeeds is FuzzParse's seed corpus.
var fuzzSeeds = []string{
	"",
	"SELECT FACT-SETS WHERE SATISFYING $x+ [] [] WITH SUPPORT = 0.1",
	`SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction .
  $x instanceOf $w .
  $x hasLabel "child-friendly"
SATISFYING
  $y+ doAt $x .
  [] eatAt $z .
  MORE
WITH SUPPORT = 0.4`,
	`SELECT VARIABLES ALL WHERE $a subClassOf* B SATISFYING $a{1,3} r "Multi Word" WITH SUPPORT = 0.9`,
	"select fact-sets where satisfying $x? [] [] with support = 1",
	"SELECT FACT-SETS WHERE $x $p* y SATISFYING $x [] [] WITH SUPPORT = 0.5",
	"# comment only",
	"$ $$ {,} [ ] \"unterminated",
}

// FuzzParse exercises the parser with arbitrary inputs; it must never panic,
// and any query that parses must print to a form that reparses.
// Run `go test -fuzz=FuzzParse ./internal/oassisql` for continuous fuzzing;
// plain `go test` runs the seed corpus.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil || q == nil {
			return
		}
		text := q.String()
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, src, text)
		}
		if q2.String() != text {
			t.Fatalf("print/parse not a fixpoint:\n%q\nvs\n%q", text, q2.String())
		}
	})
}
