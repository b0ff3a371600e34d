package panel_test

import (
	"fmt"
	"slices"
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/panel"
	"oassis/internal/synth"
)

// figure1Query is the paper's running-example query over the Figure 1
// ontology (the same shape the serving-tier equivalence test uses).
const figure1Query = `
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

// renderRun flattens a core result into one comparable string: every MSP
// and valid-MSP key in order plus the full statistics. Bit-identical runs
// render identically.
func renderRun(res *core.Result) string {
	out := ""
	for _, m := range res.MSPs {
		out += "msp: " + m.Key() + "\n"
	}
	for _, m := range res.ValidMSPs {
		out += "valid: " + m.Key() + "\n"
	}
	return out + fmt.Sprintf("stats: %+v\n", res.Stats)
}

// figure1Config builds the Figure-1 workload: the paper's sample ontology
// mined by the two sample personal histories.
func figure1Config(t *testing.T) core.Config {
	t.Helper()
	s := ontology.NewSample()
	dom, err := core.NewDomain(s.Voc, s.Onto)
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassisql.Parse(figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	pl, _, err := dom.CompileVariant(q, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := crowd.SampleDBs(s)
	return core.Config{
		Space: pl.NewSpace(),
		Theta: pl.Support,
		Members: []crowd.Member{
			&crowd.SimMember{Name: "p00", DB: u1},
			&crowd.SimMember{Name: "p01", DB: u2},
		},
		Agg: aggregate.NewFixedSample(2),
	}
}

// TestPanelEquivalenceMatrix is the tentpole's correctness claim: panel-
// batched execution is bit-identical to sequential per-question execution
// — across the Figure-1 domain and two synthetic domains, at panel sizes
// 1, 4 and 16, with and without successor speculation, at dispatch
// parallelism 1 and 8.
func TestPanelEquivalenceMatrix(t *testing.T) {
	travel := synth.DomainConfig{
		Name: "travel", YTerms: 30, XTerms: 10, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 6, Seed: 101,
	}
	culinary := synth.DomainConfig{
		Name: "culinary", YTerms: 24, XTerms: 12, YDepth: 4, XDepth: 3,
		Members: 8, Transactions: 12, Patterns: 8, Seed: 202,
	}
	type workload struct {
		name string
		cfg  func(t *testing.T) core.Config
	}
	workloads := []workload{
		{"figure1", figure1Config},
	}
	for _, dc := range []synth.DomainConfig{travel, culinary} {
		dc := dc
		workloads = append(workloads, workload{dc.Name, func(t *testing.T) core.Config {
			t.Helper()
			d, err := synth.GenerateDomain(dc)
			if err != nil {
				t.Fatal(err)
			}
			return core.Config{
				Space:   d.Sp,
				Theta:   0.2,
				Members: d.Members,
				Agg:     aggregate.NewFixedSample(3),
			}
		}})
	}
	for _, wl := range workloads {
		want := renderRun(core.Run(wl.cfg(t)))
		for _, size := range []int{1, 4, 16} {
			for _, spec := range []int{0, size} {
				for _, par := range []int{1, 8} {
					name := fmt.Sprintf("%s/size%d/spec%d/p%d", wl.name, size, spec, par)
					cfg := wl.cfg(t)
					cfg.PanelSpeculation = spec
					res, st := panel.Run(cfg, size, par)
					if got := renderRun(res); got != want {
						t.Errorf("%s: panel-batched run differs from sequential:\n--- sequential\n%s--- panels\n%s",
							name, want, got)
					}
					if st.RoundTrips == 0 || st.Items < st.RoundTrips {
						t.Errorf("%s: implausible stats %+v", name, st)
					}
				}
			}
		}
	}
}

// TestNextPanelsAreOpenPrefixes checks the one panel rule exactly, on
// every step of the Figure-1 run: each panel's item IDs are the member's
// AppendOpen list cut to the size bound, concrete items carry priors, and
// the panels come in the order members first surface in that step's
// Next. A twin session driven by the same answers supplies the Next list,
// since calling Next is what advances a session.
func TestNextPanelsAreOpenPrefixes(t *testing.T) {
	const size = 4
	cfg := figure1Config(t)
	cfg.PanelSpeculation = 8
	ids := make([]string, len(cfg.Members))
	byID := map[string]crowd.Member{}
	for i, m := range cfg.Members {
		ids[i] = m.ID()
		byID[m.ID()] = m
	}
	s := core.NewSession(cfg, ids)
	defer s.Close()
	twinCfg := figure1Config(t)
	twinCfg.PanelSpeculation = 8
	twin := core.NewSession(twinCfg, ids)
	defer twin.Close()

	cut := false
	for step := 0; ; step++ {
		panels := panel.Next(s, size)
		qs := twin.Next()
		if panels == nil {
			if len(qs) != 0 {
				t.Fatalf("step %d: no panels, but the twin session has %d questions", step, len(qs))
			}
			break
		}
		var order []string
		for _, q := range qs {
			if !slices.Contains(order, q.Member) {
				order = append(order, q.Member)
			}
		}
		if len(panels) != len(order) {
			t.Fatalf("step %d: %d panels, want one per member of %v", step, len(panels), order)
		}
		for i, p := range panels {
			if p.Member != order[i] {
				t.Fatalf("step %d: panel %d is %s's, want %s's (first-surfaced order %v)", step, i, p.Member, order[i], order)
			}
			open := twin.AppendOpen(nil, p.Member)
			want := open[:min(len(open), size)]
			cut = cut || len(open) > size
			if len(p.Items) != len(want) {
				t.Fatalf("step %d: %s's panel has %d items, want %d", step, p.Member, len(p.Items), len(want))
			}
			for j, it := range p.Items {
				if it.Question.ID != want[j].ID {
					t.Fatalf("step %d: %s's item %d is question %d, want %d", step, p.Member, j, it.Question.ID, want[j].ID)
				}
				if it.Question.Kind == core.KindConcrete && it.Prior.Confidence == crowd.ConfidenceNone {
					t.Fatalf("step %d: concrete item %d of %s has no prior", step, j, p.Member)
				}
			}
		}
		// Answer only the blocked question, sequential-style, in both.
		q := panels[0].Items[0].Question
		if q.ID != qs[0].ID {
			t.Fatalf("step %d: first item is question %d, want the blocked question %d", step, q.ID, qs[0].ID)
		}
		m := byID[q.Member]
		var a core.Answer
		switch q.Kind {
		case core.KindSpecialization:
			r := m.ChooseSpecialization(q.Choices)
			a = core.Answer{Support: r.Support, Choice: r.Choice, Chosen: r.Chosen, Declined: r.Declined}
		default:
			a = core.AnswerSupport(m.Concrete(q.Facts))
		}
		for _, sess := range []*core.Session{s, twin} {
			if err := sess.SubmitBatch([]core.Submission{{ID: q.ID, Answer: a}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !cut {
		t.Error("no member ever had more open questions than the size bound")
	}
}

// TestSessionPriorsGrading checks panel.Prior's grading: no
// answers yields a Low-confidence structural guess, one answer upgrades
// to Medium, three or more to High (a one-tap confirmation) with the
// aggregate mean as the guess.
func TestSessionPriorsGrading(t *testing.T) {
	cfg := figure1Config(t)
	ids := []string{"p00", "p01"}
	s := core.NewSession(cfg, ids)
	defer s.Close()
	qs := s.Next()
	if len(qs) == 0 {
		t.Fatal("no questions")
	}
	q := qs[0]
	if q.Kind != core.KindConcrete {
		t.Skipf("first question is %v, not concrete", q.Kind)
	}
	p := panel.Prior(s, q)
	if p.Confidence != crowd.ConfidenceLow || p.Source != "ontology" {
		t.Fatalf("prior before any answer = %+v, want Low/ontology", p)
	}
	if p.Support <= 0 || p.Support > 1 {
		t.Fatalf("structural guess %v out of range", p.Support)
	}
}

// BenchmarkRun times the panel layer end to end: panel.Run over the
// travel domain at panel size 8 with successor speculation 8, one panel
// in flight. Domain generation is outside the timer.
func BenchmarkRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := synth.GenerateDomain(travelDomain)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.Config{
			Space:            d.Sp,
			Theta:            0.2,
			Members:          d.Members,
			Agg:              aggregate.NewFixedSample(3),
			PanelSpeculation: 8,
		}
		b.StartTimer()
		panel.Run(cfg, 8, 1)
	}
}
