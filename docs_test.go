package oassis

import (
	"os"
	"strings"
	"testing"
)

// TestLanguageGuideExamplesParse keeps docs/LANGUAGE.md honest: every
// ```oassisql code block in the guide must parse.
func TestLanguageGuideExamplesParse(t *testing.T) {
	data, err := os.ReadFile("docs/LANGUAGE.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := extractBlocks(string(data), "oassisql")
	if len(blocks) < 8 {
		t.Fatalf("only %d oassisql examples found in the guide", len(blocks))
	}
	for i, b := range blocks {
		if _, err := ParseQuery(b); err != nil {
			t.Errorf("guide example %d does not parse: %v\n%s", i+1, err, b)
		}
	}
}

// TestLanguageGuideExamplesRun executes the guide examples that only use
// sample-ontology terms against the Table 3 crowd, ensuring they not only
// parse but evaluate.
func TestLanguageGuideExamplesRun(t *testing.T) {
	data, err := os.ReadFile("docs/LANGUAGE.md")
	if err != nil {
		t.Fatal(err)
	}
	db := SampleDB()
	members := table3Members(t, db)
	ran := 0
	for i, b := range extractBlocks(string(data), "oassisql") {
		q, err := ParseQuery(b)
		if err != nil {
			continue // covered by the parse test
		}
		res, err := Exec(db, q, members, WithAnswersPerQuestion(2))
		if err != nil {
			// Examples referencing terms outside the sample ontology are
			// expected to fail name resolution; anything else is a bug.
			if strings.Contains(err.Error(), "unknown term") {
				continue
			}
			t.Errorf("guide example %d failed to run: %v", i+1, err)
			continue
		}
		_ = res
		ran++
	}
	if ran < 6 {
		t.Errorf("only %d guide examples ran end to end", ran)
	}
}

// extractBlocks pulls fenced code blocks with the given info string.
func extractBlocks(doc, lang string) []string {
	var out []string
	lines := strings.Split(doc, "\n")
	var cur []string
	in := false
	for _, line := range lines {
		switch {
		case !in && strings.TrimSpace(line) == "```"+lang:
			in = true
			cur = cur[:0]
		case in && strings.TrimSpace(line) == "```":
			in = false
			out = append(out, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, line)
		}
	}
	return out
}

// TestBaselineRefreshCommandsAgree keeps DESIGN.md's baseline-refresh
// command equal, up to whitespace, to the one in the Makefile's
// bench-compare comment, so the two cannot drift apart silently.
func TestBaselineRefreshCommandsAgree(t *testing.T) {
	var cmds [2]string
	for i, path := range []string{"DESIGN.md", "Makefile"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cmd, ok := refreshCommand(string(data))
		if !ok {
			t.Fatalf("%s: no baseline-refresh command (go run ./cmd/oassis-bench -exp … -out BENCH_baseline.json)", path)
		}
		cmds[i] = cmd
	}
	if cmds[0] != cmds[1] {
		t.Errorf("baseline-refresh commands differ:\n  DESIGN.md: %s\n  Makefile:  %s", cmds[0], cmds[1])
	}
}

// refreshCommand extracts the first `go run ./cmd/oassis-bench -exp …
// -out BENCH_baseline.json` command from doc, whitespace normalized.
func refreshCommand(doc string) (string, bool) {
	const start, end = "go run ./cmd/oassis-bench -exp", "-out BENCH_baseline.json"
	i := strings.Index(doc, start)
	if i < 0 {
		return "", false
	}
	j := strings.Index(doc[i:], end)
	if j < 0 {
		return "", false
	}
	return strings.Join(strings.Fields(doc[i:i+j+len(end)]), " "), true
}
