package oassis

import (
	"fmt"
	"strings"
	"testing"
)

// renderPlanResult flattens everything Exec promises into one comparable
// string: the MSP texts (in order), the ALL list, and the full run
// statistics. Bit-identical runs render identically.
func renderPlanResult(res *Result) string {
	var b strings.Builder
	for _, m := range res.MSPs {
		b.WriteString("msp: " + m.Text + "\n")
	}
	for _, m := range res.AllMSPs {
		b.WriteString("all-msp: " + m.Text + "\n")
	}
	for _, m := range res.AllSignificant {
		b.WriteString("sig: " + m.Text + "\n")
	}
	fmt.Fprintf(&b, "stats: %+v\n", res.Stats)
	return b.String()
}

// TestExecPlanEquivalenceMatrix is the facade half of the planner
// equivalence matrix: on the paper's running example, ExecPlan of a
// compiled plan — cache cold and cache warm — must be bit-identical to
// Exec of the query, at parallelism 1 and 8.
func TestExecPlanEquivalenceMatrix(t *testing.T) {
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		opts := func() []Option {
			return []Option{
				WithAnswersPerQuestion(2),
				WithMoreCandidates(Triple{"Rent Bikes", "doAt", "Boathouse"}),
				WithParallelism(par),
			}
		}

		// Seed behavior: the query path (compiles internally).
		db1 := SampleDB()
		res, err := Exec(db1, q, table3Members(t, db1), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		want := renderPlanResult(res)

		// Planned path, cache cold: first Compile on a fresh DB.
		db2 := SampleDB()
		p1, err := Compile(db2, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err = ExecPlan(db2, p1, table3Members(t, db2), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPlanResult(res); got != want {
			t.Errorf("parallelism %d: ExecPlan (cold) differs from Exec:\n--- Exec\n%s--- ExecPlan\n%s", par, want, got)
		}

		// Planned path, cache warm: recompiling returns the cached plan.
		p2, err := Compile(db2, q)
		if err != nil {
			t.Fatal(err)
		}
		res, err = ExecPlan(db2, p2, table3Members(t, db2), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderPlanResult(res); got != want {
			t.Errorf("parallelism %d: ExecPlan (warm) differs from Exec:\n--- Exec\n%s--- ExecPlan\n%s", par, want, got)
		}
	}
}

// TestPlanCacheEffectiveness pins the cache contract: a warm Compile
// returns the very same *plan.Plan (no new allocation), the hit/miss
// counters record it, and compile latency lands in the histogram.
func TestPlanCacheEffectiveness(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	p1, err := Compile(db, q, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(db, q, WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	if p1.inner != p2.inner {
		t.Error("warm Compile allocated a new plan instead of returning the cached one")
	}
	if p1.Fingerprint() != p2.Fingerprint() || !strings.HasPrefix(p1.Fingerprint(), "sha256:") {
		t.Errorf("fingerprints: %q vs %q", p1.Fingerprint(), p2.Fingerprint())
	}
	snap := m.Snapshot()
	if got := snap["oassis_plan_cache_misses_total"]; got != 1 {
		t.Errorf("misses = %v, want 1 (snapshot %v)", got, snap)
	}
	if got := snap["oassis_plan_cache_hits_total"]; got != 1 {
		t.Errorf("hits = %v, want 1 (snapshot %v)", got, snap)
	}
	if got := snap["oassis_plan_compile_seconds_count"]; got != 1 {
		t.Errorf("compile histogram count = %v, want 1 (snapshot %v)", got, snap)
	}
}

// TestExecPlanDomainDrift: executing a plan against a DB whose domain has
// a different fingerprint is refused, not silently mis-executed.
func TestExecPlanDomainDrift(t *testing.T) {
	db1 := SampleDB()
	q, err := ParseQuery(figure2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(db1, q)
	if err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	for _, el := range []string{"Attraction", "Activity", "Restaurant", "NYC", "Central Park"} {
		if err := db2.AddTerm(el); err != nil {
			t.Fatal(err)
		}
	}
	for _, rel := range []string{"doAt", "eatAt", "nearBy", "inside", "instanceOf", "subClassOf", "hasLabel"} {
		if err := db2.AddRelation(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := db2.Freeze(); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecPlan(db2, p, nil); err == nil {
		t.Fatal("ExecPlan accepted a plan compiled against a different domain")
	} else if !strings.Contains(err.Error(), "different domain") {
		t.Fatalf("unexpected drift error: %v", err)
	}

	if _, err := ExecPlan(db1, nil, nil); err == nil {
		t.Fatal("ExecPlan accepted a nil plan")
	}
}
