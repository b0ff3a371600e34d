package store

import (
	"testing"

	"oassis/internal/aggregate"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// resumeQuery is the restricted Figure 3 query of the paper over the
// sample ontology — small enough to enumerate, large enough that a run
// asks a meaningful number of questions.
const resumeQuery = `
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

func buildResumeSpace(t testing.TB) (*ontology.Sample, *assign.Space, float64) {
	t.Helper()
	s := ontology.NewSample()
	q := oassisql.MustParse(resumeQuery)
	bs, err := sparql.Evaluate(s.Onto, q.Where)
	if err != nil {
		t.Fatal(err)
	}
	maps := make([]map[string]vocab.Term, len(bs))
	for i, b := range bs {
		maps[i] = b
	}
	sp, err := assign.NewSpace(s.Voc, q, maps, sparql.Anchors(s.Voc, q.Where))
	if err != nil {
		t.Fatal(err)
	}
	return s, sp, q.Support
}

// driveSession answers every surfaced question from db's personal history
// until the run ends or stopAfter answers were given. When it stops early
// it simulates a crash: the store is closed with the last question handed
// out but unanswered, and only then is the engine unwound (so the
// unwinding cannot pollute the log with answers the member never gave).
// It returns the question keys it answered, in order, the key of the
// question in flight at the crash ("" when the run finished), and the run
// result (nil when crashed).
func driveSession(t *testing.T, sp *assign.Space, theta float64, st *Store,
	prime *core.Cache, db *crowd.PersonalDB, stopAfter int) ([]string, string, *core.Result) {
	t.Helper()
	cfg := core.Config{Space: sp, Theta: theta, Agg: aggregate.NewFixedSample(1)}
	if st != nil {
		cfg.Store = st
	}
	if prime != nil {
		cfg.Prime = prime
	}
	sess := core.NewSession(cfg, []string{"u1"})
	var asked []string
	for {
		qs := sess.Next()
		if qs == nil {
			return asked, "", sess.Close()
		}
		q := qs[0]
		if q.Specialization() {
			t.Fatal("unexpected specialization question (ratio is 0)")
		}
		if stopAfter > 0 && len(asked) == stopAfter {
			// Crash point: the previous answer is durable (the engine
			// recorded it before surfacing this question) and the current
			// question is handed out but unanswered. Closing the store
			// first means the engine's own unwinding below — Leave makes
			// the in-flight question report support 0 — cannot pollute
			// the log with answers the member never gave.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			sess.Leave("u1")
			sess.Close()
			return asked, q.Facts.Key(), nil
		}
		asked = append(asked, q.Facts.Key())
		if err := sess.Submit(q.ID, core.AnswerSupport(crowd.FiveLevel(db.Support(q.Facts)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionKillAndRestart is the acceptance scenario: a session stopped
// mid-query and restarted against the same store completes the query
// re-asking zero already-answered questions and reaches the same result as
// an uninterrupted run — at every possible crash point. The question that
// was in flight at the crash is not journaled: the restarted engine,
// replaying the recovered answers, reaches it again by itself and issues
// it as its first question — never lost, never double-counted.
func TestSessionKillAndRestart(t *testing.T) {
	s, sp, theta := buildResumeSpace(t)
	u1, _ := crowd.SampleDBs(s)

	// Reference: an uninterrupted run without a store.
	refAsked, _, refRes := driveSession(t, sp, theta, nil, nil, u1, 0)
	if refRes == nil || len(refAsked) < 5 {
		t.Fatalf("reference run asked only %d questions", len(refAsked))
	}

	for stop := 1; stop < len(refAsked); stop++ {
		dir := t.TempDir()
		st1, rec1 := mustOpen(t, dir, Options{})
		if len(rec1.Answers) != 0 {
			t.Fatal("fresh store not empty")
		}
		asked1, inFlight, res := driveSession(t, sp, theta, st1, nil, u1, stop)
		if res != nil {
			t.Fatalf("stop=%d: run finished before the crash point", stop)
		}

		st2, rec2 := mustOpen(t, dir, Options{})
		if len(rec2.Answers) != stop {
			t.Fatalf("stop=%d: recovered %d answers", stop, len(rec2.Answers))
		}
		for i, a := range rec2.Answers {
			if a.Question != asked1[i] {
				t.Fatalf("stop=%d: recovered answer %d is %q, want %q", stop, i, a.Question, asked1[i])
			}
		}
		// The question in flight at the crash is not among the recovered
		// answers.
		for _, a := range rec2.Answers {
			if a.Question == inFlight {
				t.Fatalf("stop=%d: in-flight question %q also recovered as answered", stop, inFlight)
			}
		}

		asked2, _, res2 := driveSession(t, sp, theta, st2, rec2.PrimeCache(), u1, 0)
		if res2 == nil {
			t.Fatalf("stop=%d: resumed run did not finish", stop)
		}
		st2.Close()

		// The in-flight question is re-issued first, not lost.
		if len(asked2) == 0 || asked2[0] != inFlight {
			t.Fatalf("stop=%d: in-flight question %q not re-issued first (got %v)",
				stop, inFlight, asked2)
		}

		// Zero duplicate questions: nothing asked before the crash is
		// ever re-asked, and the combined sequence is exactly the
		// uninterrupted run's.
		seen := make(map[string]bool, len(asked1))
		for _, q := range asked1 {
			seen[q] = true
		}
		for _, q := range asked2 {
			if seen[q] {
				t.Fatalf("stop=%d: question %q re-asked after restart", stop, q)
			}
		}
		combined := append(append([]string(nil), asked1...), asked2...)
		if len(combined) != len(refAsked) {
			t.Fatalf("stop=%d: %d+%d questions across the crash, want %d",
				stop, len(asked1), len(asked2), len(refAsked))
		}
		for i := range combined {
			if combined[i] != refAsked[i] {
				t.Fatalf("stop=%d: question %d diverged after restart", stop, i)
			}
		}
		if res2.Stats.PrimedAnswers != stop {
			t.Errorf("stop=%d: %d primed answers, want %d", stop, res2.Stats.PrimedAnswers, stop)
		}
		if res2.Stats.StoreErrors != 0 {
			t.Errorf("stop=%d: %d store errors", stop, res2.Stats.StoreErrors)
		}

		// Same MSPs as the uninterrupted run.
		if len(res2.ValidMSPs) != len(refRes.ValidMSPs) {
			t.Fatalf("stop=%d: %d MSPs, want %d", stop, len(res2.ValidMSPs), len(refRes.ValidMSPs))
		}
		for i := range res2.ValidMSPs {
			if res2.ValidMSPs[i].Key() != refRes.ValidMSPs[i].Key() {
				t.Errorf("stop=%d: MSP %d differs from uninterrupted run", stop, i)
			}
		}
	}
}
