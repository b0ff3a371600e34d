package synth_test

import (
	"cmp"
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/plan"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// BenchmarkTravelPlan measures compiling the travel domain (DAG 4773) into
// a plan: assign.NewSpace over the generator's WHERE bindings, then
// plan.FromSpace, which hashes the plan IR. The domain fingerprint is
// computed once outside the loop; BenchmarkDomainFingerprint times it.
func BenchmarkTravelPlan(b *testing.B) {
	d, err := synth.GenerateDomain(synth.Travel)
	if err != nil {
		b.Fatal(err)
	}
	want, err := d.Plan(0.2)
	if err != nil {
		b.Fatal(err)
	}
	// The generator binds every (y, x) pair in ascending term order; its
	// valid rows are exactly those pairs.
	rows := slices.Clone(d.Sp.ValidBase)
	slices.SortFunc(rows, func(a, b []vocab.Term) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	bindings := make([]map[string]vocab.Term, len(rows))
	for i, r := range rows {
		bindings[i] = map[string]vocab.Term{"y": r[0], "x": r[1]}
	}
	anchors := map[string][]vocab.Term{"y": d.Sp.Vars[0].Anchors, "x": d.Sp.Vars[1].Anchors}
	q := &oassisql.Query{
		Select:  oassisql.SelectFactSets,
		Support: 0.2,
		Satisfying: []oassisql.Pattern{{
			S: oassisql.Var("y"), SMult: oassisql.MultPlus,
			R: oassisql.TermAtom("doAt"),
			O: oassisql.Var("x"), OMult: oassisql.MultOne,
		}},
	}
	compile := func() *plan.Plan {
		sp, err := assign.NewSpace(d.Voc, q, bindings, anchors)
		if err != nil {
			b.Fatal(err)
		}
		pl, err := plan.FromSpace("synth:travel", 0.2, false, want.DomainFP, sp)
		if err != nil {
			b.Fatal(err)
		}
		return pl
	}
	if got := compile(); got.Fingerprint() != want.Fingerprint() {
		b.Fatalf("rebuilt travel plan %s, generated %s", got.Fingerprint(), want.Fingerprint())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile()
	}
}
