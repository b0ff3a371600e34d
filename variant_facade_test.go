package oassis

import "testing"

// TestWithPolicyCompile: WithStopPolicy at Compile time lands in the
// plan — accessor, fingerprint distinctness, and cache reuse of the
// variant — and ExecPlan of a base plan under WithStopPolicy runs the
// variant.
func TestWithPolicyCompile(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Compile(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if base.StopPolicy() != StopThreshold {
		t.Errorf("default plan StopPolicy() = %q", base.StopPolicy())
	}
	variant, err := Compile(db, q, WithStopPolicy(StopSpecies))
	if err != nil {
		t.Fatal(err)
	}
	if variant.StopPolicy() != StopSpecies {
		t.Errorf("variant StopPolicy() = %q", variant.StopPolicy())
	}
	if variant.Fingerprint() == base.Fingerprint() {
		t.Error("stop variant shares the base fingerprint")
	}
	again, err := Compile(db, q, WithStopPolicy(StopSpecies))
	if err != nil {
		t.Fatal(err)
	}
	if again.inner != variant.inner {
		t.Error("warm variant Compile did not hit the cache")
	}

	// ExecPlan of a base plan under WithStopPolicy derives the variant
	// rather than executing the base stop rule: only the species
	// estimator reports a completeness estimate.
	res, err := ExecPlan(db, base, table3Members(t, db),
		WithAnswersPerQuestion(2), WithStopPolicy(StopSpecies))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ExecPlan(db, base, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StopEstimate == 0 || ref.Stats.StopEstimate != 0 {
		t.Errorf("StopEstimate: species %g, threshold %g; want > 0 and 0",
			res.Stats.StopEstimate, ref.Stats.StopEstimate)
	}
}

// TestPlanVariantsOneCacheEntry: deriving a plan back to the default
// stop policy finds the base plan instead of filing it a second time, so
// the DB's cache holds each plan once.
func TestPlanVariantsOneCacheEntry(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(db, q); err != nil {
		t.Fatal(err)
	}
	sv, err := Compile(db, q, WithStopPolicy(StopSpecies))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecPlan(db, sv, table3Members(t, db),
		WithAnswersPerQuestion(2), WithStopPolicy(StopThreshold)); err != nil {
		t.Fatal(err)
	}
	dom, err := db.domain()
	if err != nil {
		t.Fatal(err)
	}
	if n := dom.Plans().Len(); n != 2 {
		t.Errorf("plan cache holds %d plans, want 2 (threshold and species)", n)
	}
}

// TestCompileVariantsWithoutPlanCache: for every stop policy, the empty
// default included, compiling through the cache and around it gives the
// same fingerprint.
func TestCompileVariantsWithoutPlanCache(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []string{"", StopThreshold, StopSpecies, StopAccuracy} {
		cached, err := Compile(db, q, WithStopPolicy(stop))
		if err != nil {
			t.Fatalf("%q: %v", stop, err)
		}
		fresh, err := Compile(db, q, WithStopPolicy(stop), WithoutPlanCache())
		if err != nil {
			t.Fatalf("%q without cache: %v", stop, err)
		}
		if cached.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("%q: cached %s, uncached %s", stop, cached.Fingerprint(), fresh.Fingerprint())
		}
	}
}
