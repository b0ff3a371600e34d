package oassis

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

// TestExecWithStoreResumes exercises the public WithStore path: a run cut
// short by a question budget persists its answers, and a rerun against
// the same directory replays them — finishing with the same output as an
// uninterrupted run and asking only the missing questions live.
func TestExecWithStoreResumes(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}

	ref, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.RecoveredAnswers() != 0 {
		t.Fatalf("fresh store recovered %d answers", st.RecoveredAnswers())
	}
	budget := ref.Stats.TotalQuestions / 2
	part, err := Exec(db, q, table3Members(t, db),
		WithAnswersPerQuestion(2), WithMaxQuestions(budget), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if part.Stats.StoreErrors != 0 {
		t.Fatalf("store errors in first run: %d", part.Stats.StoreErrors)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.RecoveredAnswers() == 0 {
		t.Fatal("nothing recovered from the interrupted run")
	}
	res, err := Exec(db, q, table3Members(t, db),
		WithAnswersPerQuestion(2), WithStore(st2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrimedAnswers == 0 {
		t.Fatal("resumed run replayed no answers")
	}
	if res.Stats.TotalQuestions != ref.Stats.TotalQuestions {
		t.Errorf("resumed run counted %d questions, want %d",
			res.Stats.TotalQuestions, ref.Stats.TotalQuestions)
	}
	if live := res.Stats.TotalQuestions - res.Stats.PrimedAnswers; live >= ref.Stats.TotalQuestions {
		t.Errorf("resumed run asked %d live questions, no better than %d from scratch",
			live, ref.Stats.TotalQuestions)
	}
	if len(res.MSPs) != len(ref.MSPs) {
		t.Fatalf("resumed MSPs = %d, want %d", len(res.MSPs), len(ref.MSPs))
	}
	for i := range res.MSPs {
		if res.MSPs[i].Text != ref.MSPs[i].Text {
			t.Errorf("resumed MSP %d = %q, want %q", i, res.MSPs[i].Text, ref.MSPs[i].Text)
		}
	}
}

// TestWithStoreRefusesDrift: a store holds one query's answers, keyed by
// term ids, so it replays only into the plan it was recorded under. Rerun
// over the same ontology with two restaurants' names swapped, or with a
// different query, it is refused with an error instead of priming the run
// with answers about other terms.
func TestWithStoreRefusesDrift(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), WithStore(st)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var ttl bytes.Buffer
	if err := db.WriteOntology(&ttl); err != nil {
		t.Fatal(err)
	}
	swapped := strings.NewReplacer("e:Maoz%20Veg", "e:Pine", "e:Pine", "e:Maoz%20Veg").Replace(ttl.String())
	drifted, err := LoadOntology(strings.NewReader(swapped))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(drifted, q, table3Members(t, drifted), WithAnswersPerQuestion(2)); err != nil {
		t.Fatalf("fresh run over the drifted domain: %v", err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := Exec(drifted, q, table3Members(t, drifted), WithAnswersPerQuestion(2), WithStore(st2)); err == nil || !strings.Contains(err.Error(), "domain drift") {
		t.Errorf("store replayed into a drifted domain: %v", err)
	}
	if _, err := NewSession(context.Background(), drifted, q, []string{"u1", "u2"}, WithStore(st2)); err == nil || !strings.Contains(err.Error(), "domain drift") {
		t.Errorf("session over a drifted domain accepted the store: %v", err)
	}
	other, err := ParseQuery(strings.Replace(figure2, "0.4", "0.5", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(db, other, table3Members(t, db), WithStore(st2)); err == nil || !strings.Contains(err.Error(), "different query") {
		t.Errorf("store replayed into a different query: %v", err)
	}
	// The recorded domain and query still bind.
	if _, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), WithStore(st2)); err != nil {
		t.Errorf("rerun of the recorded query: %v", err)
	}
}

// TestStorePrimesEachRunFromWhatItHolds: a run on an open store replays
// every answer the store holds when it starts, not only those recovered
// at OpenStore, so a second run of figure 2 on the same open store asks
// no question live and finds the same MSPs.
func TestStorePrimesEachRunFromWhatItHolds(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PrimedAnswers != 0 || first.Stats.TotalQuestions == 0 {
		t.Fatalf("first run: %d questions, %d primed", first.Stats.TotalQuestions, first.Stats.PrimedAnswers)
	}
	second, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2), WithStore(st))
	if err != nil {
		t.Fatal(err)
	}
	if live := second.Stats.TotalQuestions - second.Stats.PrimedAnswers; live != 0 {
		t.Errorf("second run asked %d of %d questions live, want 0",
			live, second.Stats.TotalQuestions)
	}
	if st.RecoveredAnswers() != 0 {
		t.Errorf("RecoveredAnswers = %d on a store opened empty", st.RecoveredAnswers())
	}
	if len(second.MSPs) != len(first.MSPs) {
		t.Fatalf("second run MSPs = %d, want %d", len(second.MSPs), len(first.MSPs))
	}
	for i := range second.MSPs {
		if second.MSPs[i].Text != first.MSPs[i].Text {
			t.Errorf("second run MSP %d = %q, want %q", i, second.MSPs[i].Text, first.MSPs[i].Text)
		}
	}
}

// TestStoreConcurrentRuns: two runs of figure 2 started at once on one
// fresh open store each prime from a snapshot taken under the store's
// lock while the other appends, and both find the MSPs of a run without a
// store.
func TestStoreConcurrentRuns(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	res := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range res {
		members := table3Members(t, db)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = Exec(db, q, members, WithAnswersPerQuestion(2), WithStore(st))
		}(i)
	}
	wg.Wait()
	for i, r := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(r.MSPs) != len(ref.MSPs) {
			t.Fatalf("run %d: MSPs = %d, want %d", i, len(r.MSPs), len(ref.MSPs))
		}
		for j := range r.MSPs {
			if r.MSPs[j].Text != ref.MSPs[j].Text {
				t.Errorf("run %d: MSP %d = %q, want %q", i, j, r.MSPs[j].Text, ref.MSPs[j].Text)
			}
		}
	}
}
