package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oassis"
)

const testQuery = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x inside NYC.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.4
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithSampleCrowd(t *testing.T) {
	q := writeFile(t, "q.oql", testQuery)
	if err := run(q, "", "", "", 2, false, true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCrowdFile(t *testing.T) {
	q := writeFile(t, "q.oql", testQuery)
	crowd := writeFile(t, "crowd.txt", `
# comment line
member alice
Biking doAt Central Park
Biking doAt Central Park
Feed a Monkey doAt Bronx Zoo

member bob
Biking doAt Central Park
`)
	if err := run(q, "", crowd, "", 2, false, false, 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadCrowdErrors(t *testing.T) {
	db := oassis.SampleDB()
	if _, err := loadCrowd(db, filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing file accepted")
	}
	orphan := writeFile(t, "bad.txt", "Biking doAt Central Park\n")
	if _, err := loadCrowd(db, orphan); err == nil || !strings.Contains(err.Error(), "member") {
		t.Errorf("orphan transaction error = %v", err)
	}
	empty := writeFile(t, "empty.txt", "# nothing\n")
	if _, err := loadCrowd(db, empty); err == nil {
		t.Error("empty crowd accepted")
	}
	badFact := writeFile(t, "badfact.txt", "member a\nNonsense doAt Nowhere\n")
	if _, err := loadCrowd(db, badFact); err == nil {
		t.Error("unknown terms accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing.oql"), "", "", "", 1, false, false, 1); err == nil {
		t.Error("missing query accepted")
	}
	bad := writeFile(t, "bad.oql", "SELECT nonsense")
	if err := run(bad, "", "", "", 1, false, false, 1); err == nil {
		t.Error("bad query accepted")
	}
	q := writeFile(t, "q.oql", testQuery)
	if err := run(q, filepath.Join(t.TempDir(), "missing.ttl"), "", "", 1, false, false, 1); err == nil {
		t.Error("missing ontology accepted")
	}
}

func TestRunWithOntologyFile(t *testing.T) {
	// Export the sample ontology and reload it through the CLI path.
	db := oassis.SampleDB()
	var sb strings.Builder
	if err := db.WriteOntology(&sb); err != nil {
		t.Fatal(err)
	}
	onto := writeFile(t, "o.ttl", sb.String())
	q := writeFile(t, "q.oql", testQuery)
	crowd := writeFile(t, "crowd.txt", "member a\nBiking doAt Central Park\n")
	if err := run(q, onto, crowd, "", 1, false, false, 1); err != nil {
		t.Fatal(err)
	}
}

func TestTTYMemberAnswers(t *testing.T) {
	db := oassis.SampleDB()
	// Concrete: one invalid answer, then "3" (= 0.75).
	m := newTTYMemberIO(db, strings.NewReader("nope\n3\n"), &strings.Builder{})
	got := m.HowOften([]oassis.Triple{{Subject: "Biking", Relation: "doAt", Object: "Central Park"}})
	if got != 0.75 {
		t.Errorf("HowOften = %v, want 0.75", got)
	}
	if m.ID() != "you" {
		t.Error("ID wrong")
	}
	// EOF answers 0.
	m2 := newTTYMemberIO(db, strings.NewReader(""), &strings.Builder{})
	if m2.HowOften(nil) != 0 {
		t.Error("EOF should answer 0")
	}
}

func TestTTYMemberSpecialize(t *testing.T) {
	db := oassis.SampleDB()
	cands := [][]oassis.Triple{
		{{Subject: "Biking", Relation: "doAt", Object: "Central Park"}},
		{{Subject: "Basketball", Relation: "doAt", Object: "Central Park"}},
	}
	// Pick option 1 with frequency 4.
	var out strings.Builder
	m := newTTYMemberIO(db, strings.NewReader("1\n4\n"), &out)
	r := m.Specialize(cands)
	if r.Declined || !r.Chosen || r.Choice != 1 || r.Frequency != 1 {
		t.Errorf("Specialize = %+v", r)
	}
	if !strings.Contains(out.String(), "none of these") {
		t.Error("prompt missing options")
	}
	// "n" = none of these.
	m = newTTYMemberIO(db, strings.NewReader("n\n"), &strings.Builder{})
	if r := m.Specialize(cands); r.Chosen || r.Declined {
		t.Error("none-of-these not recognized")
	}
	// "s" = skip.
	m = newTTYMemberIO(db, strings.NewReader("s\n"), &strings.Builder{})
	if r := m.Specialize(cands); !r.Declined {
		t.Error("skip not recognized")
	}
	// Pruning is never offered by the TTY member.
	if _, ok := m.Irrelevant([]string{"Swimming"}); ok {
		t.Error("tty member should not prune")
	}
}
