package store

import (
	"testing"

	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/plan"
)

// TestPolicyVariantWALSeparation: two plans differing only in their
// ordering policy are different plans to the store — the fingerprint the
// journal binds to changes with the policy, so a WAL written under
// paper-order can never be replayed into a max-prune session (answers
// collected under one question order priming a run that asks in another).
func TestPolicyVariantWALSeparation(t *testing.T) {
	s := ontology.NewSample()
	q := oassisql.MustParse(`
SELECT FACT-SETS
WHERE
  $x instanceOf Park.
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.4
`)
	base, err := plan.Compile(s.Voc, s.Onto, q, plan.DomainFingerprint(s.Voc, s.Onto))
	if err != nil {
		t.Fatal(err)
	}
	variant, err := base.Variant("", plan.PolicyMaxPrune)
	if err != nil {
		t.Fatal(err)
	}
	if variant.Fingerprint() == base.Fingerprint() {
		t.Fatal("policy variant shares the base fingerprint; WAL separation impossible")
	}

	dir := t.TempDir()
	st, _ := mustOpen(t, dir, Options{})
	if err := st.BindSession(q.String()); err != nil {
		t.Fatal(err)
	}
	if err := st.BindPlan(base.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := st.BindPlan(variant.Fingerprint()); err == nil {
		t.Error("journal bound to paper-order accepted the max-prune variant")
	}
	st.Close()

	// Reopen: the recovered journal still refuses the variant.
	st2, rec := mustOpen(t, dir, Options{})
	if rec.Plan != base.Fingerprint() {
		t.Errorf("recovered plan fingerprint %q, want %q", rec.Plan, base.Fingerprint())
	}
	if err := st2.BindPlan(variant.Fingerprint()); err == nil {
		t.Error("recovered journal accepted the variant fingerprint")
	}
	st2.Close()
}
