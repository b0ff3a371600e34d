package oassis

import (
	"context"
	"testing"
)

// TestWithEarlyStop: the early-stop rule is a run option. Exec, ExecPlan
// of a plan compiled without it, and a NewSession driven to the end all
// run it to the same MSPs and Stats, and only runs with the option report
// a coverage estimate. The plan does not depend on the option: Compile
// returns the same *Plan either way and the DB's cache holds one entry.
func TestWithEarlyStop(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	early, err := Compile(db, q, WithEarlyStop())
	if err != nil {
		t.Fatal(err)
	}
	if early.inner != base.inner {
		t.Error("Compile with WithEarlyStop returned a different plan")
	}

	opts := []Option{WithAnswersPerQuestion(2), WithEarlyStop()}
	res, err := Exec(db, q, table3Members(t, db), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopEstimate <= 0 {
		t.Errorf("Exec StopEstimate = %g, want > 0", res.Stats.StopEstimate)
	}
	want := renderPlanResult(res)

	viaPlan, err := ExecPlan(db, base, table3Members(t, db), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderPlanResult(viaPlan); got != want {
		t.Errorf("ExecPlan diverged from Exec:\n--- got\n%s--- want\n%s", got, want)
	}

	members := map[string]Member{}
	for _, m := range table3Members(t, db) {
		members[m.ID()] = m
	}
	s, err := NewSession(context.Background(), db, q, []string{"u1", "u2"}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for qs := s.Next(); len(qs) > 0; qs = s.Next() {
		if err := s.Submit(qs[0].ID, respond(members[qs[0].Member], qs[0])); err != nil {
			t.Fatal(err)
		}
	}
	if got := renderPlanResult(s.Close()); got != want {
		t.Errorf("NewSession diverged from Exec:\n--- got\n%s--- want\n%s", got, want)
	}

	plain, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.StopEstimate != 0 {
		t.Errorf("StopEstimate without WithEarlyStop = %g, want 0", plain.Stats.StopEstimate)
	}
	dom, err := db.domain()
	if err != nil {
		t.Fatal(err)
	}
	if n := dom.Plans().Len(); n != 1 {
		t.Errorf("plan cache holds %d plans, want 1", n)
	}
}
