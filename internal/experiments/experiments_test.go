package experiments

import (
	"strings"
	"testing"

	"oassis/internal/synth"
)

// tinyDomain returns a small domain config for fast tests (structure like
// the paper's, scaled down).
func tinyDomain() synth.DomainConfig {
	return synth.DomainConfig{
		Name: "tiny", YTerms: 40, XTerms: 13, YDepth: 4, XDepth: 2,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 9,
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "b"}}
	r.Add(1, "two,with comma")
	r.Add(0.5, "quote\"inside")
	r.Note("note %d", 7)
	table := r.Table()
	if !strings.Contains(table, "== x: T ==") || !strings.Contains(table, "note 7") {
		t.Errorf("table = %q", table)
	}
	csv := r.CSV()
	if !strings.Contains(csv, `"two,with comma"`) {
		t.Errorf("csv escaping: %q", csv)
	}
	if !strings.Contains(csv, `"quote""inside"`) {
		t.Errorf("csv quote escaping: %q", csv)
	}
	if pct(1, 0) != "n/a" || pct(1, 4) != "25.0%" {
		t.Error("pct helper wrong")
	}
}

func TestReportFloatPrecision(t *testing.T) {
	r := &Report{}
	r.Add(1416.0, 0.25, 1.0/3.0, 0.000123456)
	got := r.Rows[0]
	// %.3g is kept only when it round-trips; 1416 must not become 1.42e+03.
	want := []string{"1416", "0.25", "0.3333333333333333", "0.000123456"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFig4DomainTiny(t *testing.T) {
	r, err := Fig4Domain("fig4-tiny", tinyDomain(), DomainScale{Sample: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 thresholds", len(r.Rows))
	}
	// Questions at theta 0.5 must not exceed questions at theta 0.2 by much
	// (generally they drop, as in the paper).
	q02 := atoiRow(t, r.Rows[0][3])
	q05 := atoiRow(t, r.Rows[3][3])
	if q05 > q02 {
		t.Errorf("questions rose with threshold: %d -> %d", q02, q05)
	}
	// MSP counts must not grow with the threshold (footnote 8 allows small
	// exceptions, but not in this smooth synthetic crowd).
	m02 := atoiRow(t, r.Rows[0][1])
	m05 := atoiRow(t, r.Rows[3][1])
	if m05 > m02 {
		t.Errorf("MSPs rose with threshold: %d -> %d", m02, m05)
	}
}

func atoiRow(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestFig4PaceTiny(t *testing.T) {
	r, err := Fig4Pace("fig4d-tiny", tinyDomain(), DomainScale{Sample: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 10 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Curves must be monotone in questions.
	prev := 0
	for _, row := range r.Rows {
		q := atoiRow(t, row[1])
		if q < prev {
			t.Fatalf("classified curve not monotone: %v", r.Rows)
		}
		prev = q
	}
}

func TestFig5Tiny(t *testing.T) {
	cfg := DefaultFig5(0.1)
	cfg.Trials = 2
	cfg.MSPPercents = []float64{2, 10}
	r, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 { // 2 percentages × 3 algorithms
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The vertical algorithm should reach 20% of the MSPs with fewer
	// questions than the horizontal one (the paper's headline claim).
	byAlg := map[string][]string{}
	for _, row := range r.Rows {
		if row[0] == "2%" {
			byAlg[row[1]] = row
		}
	}
	v20 := atoiRow(t, byAlg["vertical"][2])
	h20 := atoiRow(t, byAlg["horizontal"][2])
	if v20 > h20 {
		t.Errorf("vertical q@20%% = %d > horizontal %d", v20, h20)
	}
}

func TestFig4fTiny(t *testing.T) {
	cfg := DefaultFig4f(0.1)
	cfg.Trials = 2
	r, err := Fig4f(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// 100% specialization should not need more questions than 100% closed
	// to reach the full MSP set (Fig 4f shows it helps, if not by much).
	closed := atoiRow(t, r.Rows[0][len(r.Rows[0])-1])
	special := atoiRow(t, r.Rows[3][len(r.Rows[3])-1])
	if special > closed+closed/2 {
		t.Errorf("specialization hurt badly: %d vs %d", special, closed)
	}
}

func TestSweepsTiny(t *testing.T) {
	if r, err := SweepDAGShape(0.06, 1, 1); err != nil || len(r.Rows) != 6 {
		t.Fatalf("dag shape: %v rows=%v", err, r)
	}
	if r, err := SweepMSPDistribution(0.06, 1, 1); err != nil || len(r.Rows) != 6 {
		t.Fatalf("msp dist: %v", err)
	}
	r, err := SweepMultiplicities(0.06, 1, 1)
	if err != nil || len(r.Rows) != 4 {
		t.Fatalf("multiplicities: %v", err)
	}
	// Lazy generation must touch well under 1% of the eager nodes.
	for _, row := range r.Rows {
		ratio := row[len(row)-1]
		if !strings.HasSuffix(ratio, "%") {
			t.Fatalf("ratio cell = %q", ratio)
		}
		if strings.HasPrefix(ratio, "1") && !strings.HasPrefix(ratio, "0.") {
			// crude check: must start with 0.
			t.Errorf("generated/eager ratio too high: %s", ratio)
		}
	}
}

func TestComplexityBoundsTiny(t *testing.T) {
	r, err := ComplexityBounds(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("bound violated: %v", row)
		}
	}
}

func TestItemsetCapture(t *testing.T) {
	r, err := ItemsetCapture(10, 40, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[1][2] != "true" {
		t.Fatalf("OASSIS and Apriori disagree: %v\n%s", r.Rows, r.Table())
	}
	if r.Rows[2][2] != "true" {
		t.Fatalf("assoc substrate and Apriori disagree: %v\n%s", r.Rows, r.Table())
	}
}

func TestAssocMinerReport(t *testing.T) {
	r, err := AssocMiner(20, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestCrowdSummaryTiny(t *testing.T) {
	r, err := CrowdSummary(DomainScale{Members: 10, Patterns: 6, Sample: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Every domain must produce questions and MSPs.
	for _, row := range r.Rows {
		if atoiRow(t, row[2]) == 0 {
			t.Errorf("domain %s asked no questions", row[0])
		}
	}
}
