package oassis

import (
	"sort"
	"strings"
	"testing"
)

// mspTexts renders a result's MSP texts sorted, for order-insensitive
// comparison across ordering policies (different orderings ask different
// question sequences, so only the mined set is comparable).
func mspTexts(res *Result) string {
	out := make([]string, 0, len(res.MSPs))
	for _, m := range res.MSPs {
		out = append(out, m.Text)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// TestWithPolicyExec: the facade option end to end — both orderings
// mine the same MSP set as the default on the paper's running
// example (Table 3 members answer deterministically), and the compiled
// plan records the policy with a fingerprint of its own.
func TestWithPolicyExec(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	want := mspTexts(base)
	if want == "" {
		t.Fatal("default run mined no MSPs")
	}
	for _, policy := range []string{PolicyPaperOrder, PolicyMaxPrune} {
		res, err := Exec(db, q, table3Members(t, db),
			WithAnswersPerQuestion(2), WithPolicy(policy))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if got := mspTexts(res); got != want {
			t.Errorf("%s mined %q, want %q", policy, got, want)
		}
	}
}

// TestWithPolicyCompile: WithPolicy at Compile time lands in the plan —
// accessor, fingerprint distinctness, and cache reuse of the variant.
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
	if base.Policy() != PolicyPaperOrder {
		t.Errorf("default plan Policy() = %q", base.Policy())
	}
	variant, err := Compile(db, q, WithPolicy(PolicyMaxPrune))
	if err != nil {
		t.Fatal(err)
	}
	if variant.Policy() != PolicyMaxPrune {
		t.Errorf("variant Policy() = %q", variant.Policy())
	}
	if variant.Fingerprint() == base.Fingerprint() {
		t.Error("policy variant shares the base fingerprint")
	}
	again, err := Compile(db, q, WithPolicy(PolicyMaxPrune))
	if err != nil {
		t.Fatal(err)
	}
	if again.inner != variant.inner {
		t.Error("warm variant Compile did not hit the cache")
	}

	// ExecPlan of a base plan under WithPolicy derives the variant rather
	// than executing the base ordering.
	res, err := ExecPlan(db, base, table3Members(t, db),
		WithAnswersPerQuestion(2), WithPolicy(PolicyMaxPrune))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Exec(db, q, table3Members(t, db), WithAnswersPerQuestion(2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mspTexts(res), mspTexts(ref); got != want {
		t.Errorf("ExecPlan(max-prune) mined %q, want %q", got, want)
	}
}

// TestPlanVariantsOneCacheEntry: deriving a plan back to the default
// ordering finds the base plan instead of filing it a second time, so
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
	mp, err := Compile(db, q, WithPolicy(PolicyMaxPrune))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecPlan(db, mp, table3Members(t, db),
		WithAnswersPerQuestion(2), WithPolicy(PolicyPaperOrder)); err != nil {
		t.Fatal(err)
	}
	dom, err := db.domain()
	if err != nil {
		t.Fatal(err)
	}
	if n := dom.Plans().Len(); n != 2 {
		t.Errorf("plan cache holds %d plans, want 2 (paper order and max-prune)", n)
	}
}

// TestCompileVariantsWithoutPlanCache: for every (stop, ordering) pair,
// the empty defaults included, compiling through the cache and around it
// gives the same fingerprint.
func TestCompileVariantsWithoutPlanCache(t *testing.T) {
	db := SampleDB()
	q, err := ParseQuery(restrictedQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, stop := range []string{"", StopThreshold, StopSpecies, StopAccuracy} {
		for _, policy := range []string{"", PolicyPaperOrder, PolicyMaxPrune} {
			opts := []Option{WithStopPolicy(stop), WithPolicy(policy)}
			cached, err := Compile(db, q, opts...)
			if err != nil {
				t.Fatalf("(%q, %q): %v", stop, policy, err)
			}
			fresh, err := Compile(db, q, append(opts, WithoutPlanCache())...)
			if err != nil {
				t.Fatalf("(%q, %q) without cache: %v", stop, policy, err)
			}
			if cached.Fingerprint() != fresh.Fingerprint() {
				t.Errorf("(%q, %q): cached %s, uncached %s", stop, policy, cached.Fingerprint(), fresh.Fingerprint())
			}
		}
	}
}
